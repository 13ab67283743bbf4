#include "ilp/cost_model.hpp"

#include <algorithm>

#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::ilp {

std::int64_t busiestIterations(std::int64_t trip, std::int64_t chunk, std::int64_t processors) {
  AD_REQUIRE(trip >= 0 && chunk >= 1 && processors >= 1, "bad scheduling parameters");
  // Blocks of `chunk` iterations dealt round-robin; processor 0 always gets
  // the first (and any final partial) block last, so the busiest processor
  // is the one holding ceil(B/H) blocks where B = ceil(trip/chunk). Its last
  // block may be partial.
  const std::int64_t blocks = ceilDiv(trip, chunk);
  if (blocks == 0) return 0;
  const std::int64_t rounds = ceilDiv(blocks, processors);
  // Processor 0 owns blocks 0, H, 2H, ... — `rounds` of them; the final one
  // is partial only if it is the globally last block.
  const std::int64_t lastOwnedBlock = (rounds - 1) * processors;  // block index of PE 0's last
  std::int64_t iters = (rounds - 1) * chunk;
  if (lastOwnedBlock == blocks - 1) {
    iters += trip - lastOwnedBlock * chunk;  // partial tail
  } else {
    iters += chunk;
  }
  return iters;
}

double imbalanceCost(std::int64_t trip, std::int64_t chunk, std::int64_t processors,
                     double accessesPerIter, const CostParams& cp) {
  const double busiest = static_cast<double>(busiestIterations(trip, chunk, processors));
  const double fair = static_cast<double>(trip) / static_cast<double>(processors);
  const double excess = std::max(0.0, busiest - fair);
  return excess * accessesPerIter * cp.localAccess;
}

double redistributionCost(std::int64_t volume, std::int64_t processors, const CostParams& cp) {
  // Message aggregation: at most one put per (source, destination) pair, and
  // the volume splits across processors (puts proceed in parallel; the
  // per-processor critical path carries ~volume/H words and H-1 messages).
  const double messages = static_cast<double>(processors - 1);
  const double words = static_cast<double>(volume) / static_cast<double>(processors);
  return messages * cp.putLatency + words * cp.perWord;
}

}  // namespace ad::ilp
