#include "sim/trace_sim.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "ir/walker.hpp"
#include "obs/obs.hpp"
#include "sim/owner_map.hpp"
#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"

namespace ad::sim {

namespace {

using ir::evalInt;

/// How one reference's accesses are classified, resolved once per phase so
/// the per-access hot path is a table lookup.
struct RefSlot {
  std::size_t slot = 0;              ///< index into the phase's array slots
  const OwnerMap* owners = nullptr;  ///< null: privatized (always local)
  std::int64_t halo = 0;             ///< replicated frontier width (reads only)
};

}  // namespace

double TraceResult::localFraction() const {
  std::int64_t local = 0;
  std::int64_t remote = 0;
  for (const auto& p : observed.phases) {
    local += p.local();
    remote += p.remote();
  }
  const auto total = local + remote;
  return total == 0 ? 1.0 : static_cast<double>(local) / static_cast<double>(total);
}

std::string TraceResult::str() const {
  std::ostringstream os;
  os << "trace: H=" << processors << " accesses=" << totalAccesses
     << " local_fraction=" << localFraction() << "\n";
  for (const auto& p : observed.phases) {
    os << "  " << p.phase << ":";
    for (const auto& [array, c] : p.arrays) {
      os << " " << array << "(local=" << c.local << ",remote=" << c.remote << ")";
    }
    os << "\n";
  }
  for (const auto& r : observed.redistributions) {
    os << "  " << (r.frontier ? "frontier " : "redistribute ") << r.array << " before phase "
       << r.beforePhase + 1 << ": words=" << r.wordsMoved << " msgs=" << r.messages << "\n";
  }
  return os.str();
}

TraceResult simulateTrace(const ir::Program& program, const ir::Bindings& params,
                          const dsm::ExecutionPlan& plan, const SimOptions& opts) {
  obs::Span traceSpan("sim.trace", "sim");
  if (AD_FAULT_POINT("sim.trace")) {
    throw AnalysisError("injected fault: trace simulation aborted (sim.trace)");
  }
  AD_REQUIRE(plan.iteration.size() == program.phases().size(), "plan must cover every phase");
  AD_REQUIRE(opts.processors >= 1, "need at least one simulated processor");
  const std::int64_t H = opts.processors;
  const std::size_t numPhases = program.phases().size();

  // One owner table per (array, distribution), shared across phases.
  std::map<std::string, std::vector<std::unique_ptr<OwnerMap>>> owners;
  const auto ownerMap = [&](const std::string& array, const dsm::DataDistribution& dist) {
    auto& maps = owners[array];
    for (const auto& m : maps) {
      if (m->distribution() == dist) return m.get();
    }
    maps.push_back(std::make_unique<OwnerMap>(
        dist, evalInt(program.array(array).size, params, "array size"), H));
    return maps.back().get();
  };

  TraceResult result;
  result.processors = H;
  std::vector<dsm::RedistributionStats> globals;  // reported after every frontier
  std::vector<std::vector<std::string>> slotArrays(numPhases);
  // tally[k][pe * slots + slot]: what processor pe did to one array in phase k.
  std::vector<std::vector<dsm::ArrayCounts>> tally(numPhases);
  std::vector<char> pairSeen;
  support::ExpiryPoll poll;
  const auto start = std::chrono::steady_clock::now();

  for (std::size_t k = 0; k < numPhases; ++k) {
    const ir::Phase& phase = program.phase(k);

    // Frontier refreshes are a deterministic closed form (no per-element
    // work): record them directly, mirroring dsm::simulate's conditions.
    for (const auto& arr : program.arrays()) {
      const auto hit = plan.halo.find(arr.name);
      if (hit == plan.halo.end() || hit->second[k] <= 0) continue;
      if (!phase.reads(arr.name) || phase.isPrivatized(arr.name)) continue;
      bool writtenElsewhere = false;
      for (const auto& other : program.phases()) {
        writtenElsewhere = writtenElsewhere || (&other != &phase && other.writes(arr.name) &&
                                               !other.isPrivatized(arr.name));
      }
      if (!writtenElsewhere) continue;
      const auto& dist = plan.data.at(arr.name)[k];
      if (!dist.hasOwner()) continue;
      const std::int64_t size = evalInt(arr.size, params, "array size");
      const std::int64_t boundaries = std::max<std::int64_t>(0, ceilDiv(size, dist.block) - 1);
      dsm::RedistributionStats rs;
      rs.array = arr.name;
      rs.beforePhase = k;
      rs.frontier = true;
      rs.wordsMoved = 2 * hit->second[k] * boundaries;
      rs.messages = 2 * boundaries;
      if (rs.wordsMoved > 0) result.observed.redistributions.push_back(std::move(rs));
    }

    // Global redistributions entering the phase, element by element: every
    // element whose owner changes moves; each (src, dst) pair is a message.
    for (const auto& arr : program.arrays()) {
      const auto it = plan.data.find(arr.name);
      if (k == 0 || it == plan.data.end()) continue;
      const dsm::DataDistribution& prevDist = it->second[k - 1];
      const dsm::DataDistribution& nextDist = it->second[k];
      if (prevDist == nextDist || !prevDist.hasOwner() || !nextDist.hasOwner()) continue;
      if (!dsm::redistributionMovesData(program, arr.name, k)) continue;
      obs::Span redistSpan("sim.redistribute", "sim");
      const OwnerMap* prev = ownerMap(arr.name, prevDist);
      const OwnerMap* next = ownerMap(arr.name, nextDist);
      dsm::RedistributionStats rs;
      rs.array = arr.name;
      rs.beforePhase = k;
      pairSeen.assign(static_cast<std::size_t>(H * H), 0);
      for (std::int64_t a = 0; a < prev->size(); ++a) {
        poll.tick();
        const std::int64_t src = prev->owner(a);
        const std::int64_t dst = next->owner(a);
        if (src == dst) continue;
        ++rs.wordsMoved;
        char& seen = pairSeen[static_cast<std::size_t>(src * H + dst)];
        rs.messages += seen == 0 ? 1 : 0;
        seen = 1;
      }
      if (rs.wordsMoved > 0) globals.push_back(std::move(rs));
    }

    // The phase's accesses: one walk, each access charged to the processor
    // that executes its parallel iteration (processor 0 without a DOALL).
    obs::Span phaseSpan("sim.phase:" + phase.name(), "sim");
    std::vector<RefSlot> refs;
    for (const auto& r : phase.refs()) {
      RefSlot rs;
      auto& arrays = slotArrays[k];
      rs.slot = static_cast<std::size_t>(std::find(arrays.begin(), arrays.end(), r.array) -
                                         arrays.begin());
      if (rs.slot == arrays.size()) arrays.push_back(r.array);
      if (!phase.isPrivatized(r.array)) {
        const auto dit = plan.data.find(r.array);
        AD_REQUIRE(dit != plan.data.end(), "plan missing array " + r.array);
        rs.owners = ownerMap(r.array, dit->second[k]);
        // Halo replicas serve reads only (Theorem 1c: overlap must be
        // read-only to stay consistent without updates).
        if (r.kind == ir::AccessKind::kRead) {
          if (auto hit = plan.halo.find(r.array); hit != plan.halo.end()) {
            rs.halo = hit->second[k];
          }
        }
      }
      refs.push_back(rs);
    }
    const std::size_t slots = slotArrays[k].size();
    std::vector<dsm::ArrayCounts>& counts = tally[k];
    counts.assign(static_cast<std::size_t>(H) * slots, dsm::ArrayCounts{});
    const dsm::IterationDistribution& sched = plan.iteration[k];
    const bool hasPar = phase.hasParallelLoop();
    std::int64_t pe = 0;
    std::int64_t peIter = std::numeric_limits<std::int64_t>::min();
    ir::forEachAccess(program, phase, params,
                      [&](const ir::ConcreteAccess& acc, const ir::Bindings&) {
                        poll.tick();
                        if (hasPar && acc.parallelIter != peIter) {
                          peIter = acc.parallelIter;
                          pe = sched.executor(peIter, H);
                        }
                        const RefSlot& rs =
                            refs[static_cast<std::size_t>(acc.ref - phase.refs().data())];
                        dsm::ArrayCounts& c = counts[static_cast<std::size_t>(pe) * slots + rs.slot];
                        const bool local = rs.owners == nullptr ||
                                           rs.owners->isLocal(acc.address, pe, rs.halo);
                        ++(local ? c.local : c.remote);
                      });
  }
  result.wallSeconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (auto& g : globals) result.observed.redistributions.push_back(std::move(g));

  // ------------------------------------------------------------------
  // Aggregation and telemetry: per-phase totals, traffic totals and the
  // per-processor/per-phase distributions.
  // ------------------------------------------------------------------
  obs::MetricsRegistry& reg = obs::metrics();
  std::int64_t localTotal = 0;
  std::int64_t remoteTotal = 0;
  obs::Histogram& localHist = reg.histogram("ad.sim.local_per_proc_phase");
  obs::Histogram& remoteHist = reg.histogram("ad.sim.remote_per_proc_phase");
  for (std::size_t k = 0; k < numPhases; ++k) {
    const std::size_t slots = slotArrays[k].size();
    dsm::PhaseCounts pc;
    pc.phase = program.phase(k).name();
    for (std::size_t slot = 0; slot < slots; ++slot) pc.arrays[slotArrays[k][slot]];
    for (std::int64_t t = 0; t < H; ++t) {
      std::int64_t local = 0;
      std::int64_t remote = 0;
      for (std::size_t slot = 0; slot < slots; ++slot) {
        const dsm::ArrayCounts& c = tally[k][static_cast<std::size_t>(t) * slots + slot];
        dsm::ArrayCounts& total = pc.arrays[slotArrays[k][slot]];
        total.local += c.local;
        total.remote += c.remote;
        total.remoteBytes += c.remote * dsm::kWordBytes;
        local += c.local;
        remote += c.remote;
      }
      localHist.observe(local);
      remoteHist.observe(remote);
      localTotal += local;
      remoteTotal += remote;
    }
    result.observed.phases.push_back(std::move(pc));
  }
  result.totalAccesses = localTotal + remoteTotal;
  reg.counter("ad.sim.local_accesses").add(localTotal);
  reg.counter("ad.sim.remote_accesses").add(remoteTotal);
  reg.counter("ad.sim.remote_bytes").add(remoteTotal * dsm::kWordBytes);
  std::int64_t redistWords = 0;
  std::int64_t frontierWords = 0;
  for (const auto& r : result.observed.redistributions) {
    (r.frontier ? frontierWords : redistWords) += r.wordsMoved;
  }
  reg.counter("ad.sim.redistributed_words").add(redistWords);
  reg.counter("ad.sim.frontier_words").add(frontierWords);
  return result;
}

}  // namespace ad::sim
