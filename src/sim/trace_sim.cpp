#include "sim/trace_sim.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <utility>

#include "ir/walker.hpp"
#include "obs/obs.hpp"
#include "sim/owner_map.hpp"
#include "support/budget.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"

namespace ad::sim {

namespace {

using ir::evalInt;

constexpr std::int64_t kPollEvery = 4096;  ///< accesses per deadline/cancel poll

/// How one reference's accesses are classified, resolved once per phase so
/// the per-access hot path is a table lookup: its placement and the owner
/// table of its distribution.
struct RefSlot : dsm::RefPlacement {
  const OwnerMap* owners = nullptr;  ///< null: privatized (always local)
};

}  // namespace

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
  dsm::PlanCounts& counts = result.counts;
  counts.communication.resize(numPhases);
  counts.tallies.resize(numPhases);
  obs::Histogram& localHist = obs::metrics().histogram("ad.sim.local_per_proc_phase");
  obs::Histogram& remoteHist = obs::metrics().histogram("ad.sim.remote_per_proc_phase");
  std::vector<dsm::ArrayCounts> cells;
  std::vector<char> pairSeen;
  support::ExpiryPoll poll;
  const auto start = std::chrono::steady_clock::now();

  for (std::size_t k = 0; k < numPhases; ++k) {
    const ir::Phase& phase = program.phase(k);

    // The communication entering the phase. Frontier refreshes are closed
    // form; global redistributions are counted element by element: every
    // element whose owner changes moves, and each (src, dst) pair is a
    // message.
    for (const auto& arr : program.arrays()) {
      if (auto rs = dsm::frontierRefresh(program, params, plan, arr.name, k)) {
        counts.communication[k].frontier.push_back(std::move(*rs));
      }
      if (!dsm::redistributes(program, plan, arr.name, k)) continue;
      obs::Span redistSpan("sim.redistribute", "sim");
      const auto& dists = plan.data.at(arr.name);
      const OwnerMap* prev = ownerMap(arr.name, dists[k - 1]);
      const OwnerMap* next = ownerMap(arr.name, dists[k]);
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
      if (rs.wordsMoved > 0) counts.communication[k].global.push_back(std::move(rs));
    }

    // The phase's accesses: one walk of its runs, each access charged to the
    // processor that executes its parallel iteration (processor 0 without a
    // DOALL) and classified against the owner table.
    obs::Span phaseSpan("sim.phase:" + phase.name(), "sim");
    std::vector<RefSlot> refs;
    for (const dsm::RefPlacement& place : dsm::placeRefs(program, plan, k, H, counts.tallies[k])) {
      const std::string& array = phase.refs()[refs.size()].array;
      refs.push_back({place, place.dist != nullptr ? ownerMap(array, *place.dist) : nullptr});
    }
    std::vector<dsm::ArrayTally>& arrays = counts.tallies[k].arrays;
    // cells[pe * slots + slot]: what processor pe did to one array.
    const std::size_t slots = arrays.size();
    cells.assign(static_cast<std::size_t>(H) * slots, dsm::ArrayCounts{});
    const dsm::IterationDistribution& sched = plan.iteration[k];
    ir::forEachRun(ir::LoweredPhase(phase, params), [&](const ir::AccessRun& run, ir::Bindings&) {
      // Pieces of at most kPollEvery accesses, each run by one processor.
      const auto nrefs = static_cast<std::int64_t>(std::max<std::size_t>(1, run.refs.size()));
      const std::int64_t maxPiece = std::max<std::int64_t>(1, kPollEvery / nrefs);
      dsm::forEachProcessorPiece(run, sched, H, maxPiece, [&](std::int64_t t, std::int64_t n,
                                                              std::int64_t pe) {
        poll.tick(static_cast<std::uint64_t>(n * nrefs));
        for (const ir::RefRun& r : run.refs) {
          const RefSlot& rs = refs[static_cast<std::size_t>(r.ref - phase.refs().data())];
          dsm::ArrayCounts& c = cells[static_cast<std::size_t>(pe) * slots + rs.slot];
          std::int64_t local = n;
          if (rs.owners != nullptr) {
            local = 0;
            for (std::int64_t i = t; i < t + n; ++i) {
              local += rs.owners->isLocal(r.start + r.step * i, pe, rs.halo) ? 1 : 0;
            }
          }
          c.local += local;
          c.remote += n - local;
        }
      });
    });

    // The phase's tallies in the counting core's shape, and the
    // per-processor distributions.
    for (std::int64_t t = 0; t < H; ++t) {
      std::int64_t local = 0;
      std::int64_t remote = 0;
      for (std::size_t slot = 0; slot < slots; ++slot) {
        const dsm::ArrayCounts& c = cells[static_cast<std::size_t>(t) * slots + slot];
        dsm::ArrayTally& a = arrays[slot];
        a.counts.local += c.local;
        a.counts.remote += c.remote;
        a.counts.remoteBytes += c.remote * dsm::kWordBytes;
        a.peAccesses[static_cast<std::size_t>(t)] = c.local + c.remote;
        a.peRemote[static_cast<std::size_t>(t)] = c.remote;
        local += c.local;
        remote += c.remote;
      }
      localHist.observe(local);
      remoteHist.observe(remote);
    }
  }
  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  counts.wallSeconds = result.wallSeconds;

  result.observed = dsm::observedTrace(program, counts);
  const dsm::ArrayCounts traffic = result.observed.totals();
  result.totalAccesses = traffic.local + traffic.remote;
  obs::MetricsRegistry& reg = obs::metrics();
  reg.counter("ad.sim.local_accesses").add(traffic.local);
  reg.counter("ad.sim.remote_accesses").add(traffic.remote);
  reg.counter("ad.sim.remote_bytes").add(traffic.remoteBytes);
  reg.counter("ad.sim.redistributed_words").add(result.observed.wordsMoved(false));
  reg.counter("ad.sim.frontier_words").add(result.observed.wordsMoved(true));
  return result;
}

}  // namespace ad::sim
