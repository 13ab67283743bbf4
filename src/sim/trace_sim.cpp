#include "sim/trace_sim.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "ir/walker.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "sim/owner_map.hpp"
#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"

namespace ad::sim {

namespace {

using ir::evalInt;

/// Per-reference classification recipe, resolved once per phase on the main
/// thread so the per-access hot path is a table lookup.
struct RefSlot {
  std::size_t slot = 0;              ///< index into the phase's array slots
  const OwnerMap* owners = nullptr;  ///< null: replicated/private (always local)
  std::int64_t halo = 0;             ///< replicated frontier width (reads only)
  bool privatized = false;
};

struct PhasePrep {
  std::vector<std::string> slotArrays;  ///< distinct arrays, slot order
  std::vector<RefSlot> refs;            ///< parallel to phase.refs()
  dsm::IterationDistribution sched;
  std::string spanName;                 ///< "sim.phase:<name>", built once here
};

/// One redistribution to count entering a phase: every element whose owner
/// changes between `prev` and `next` moves.
struct RedistJob {
  std::string array;
  std::int64_t size = 0;
  const OwnerMap* prev = nullptr;
  const OwnerMap* next = nullptr;
};

/// Per-thread tallies. Each worker writes only its own shard; shards are
/// aggregated by the main thread after join. alignas keeps the shard array
/// itself off shared cache lines; the vectors' heap blocks are per-thread
/// allocations already.
struct alignas(64) Shard {
  std::vector<std::vector<dsm::ArrayCounts>> access;           // [phase][slot]
  std::vector<std::vector<std::int64_t>> redistWords;          // [phase][job]
  std::vector<std::vector<std::set<std::pair<std::int64_t, std::int64_t>>>> redistPairs;
  std::exception_ptr error;
};

const OwnerMap* cachedOwnerMap(
    std::map<std::string, std::vector<std::unique_ptr<OwnerMap>>>& cache,
    const std::string& array, const dsm::DataDistribution& dist, std::int64_t size,
    std::int64_t processors) {
  auto& maps = cache[array];
  for (const auto& m : maps) {
    if (m->distribution() == dist && m->size() == size) return m.get();
  }
  maps.push_back(std::make_unique<OwnerMap>(dist, size, processors));
  return maps.back().get();
}

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

  // ------------------------------------------------------------------
  // Main-thread preparation: owner maps, per-reference recipes, and the
  // redistribution/frontier events of every phase boundary.
  // ------------------------------------------------------------------
  std::map<std::string, std::vector<std::unique_ptr<OwnerMap>>> ownerCache;
  std::vector<PhasePrep> prep(numPhases);
  std::vector<std::vector<RedistJob>> jobs(numPhases);
  TraceResult result;
  result.processors = H;

  for (std::size_t k = 0; k < numPhases; ++k) {
    const ir::Phase& phase = program.phase(k);
    PhasePrep& pp = prep[k];
    pp.sched = plan.iteration[k];
    pp.spanName = "sim.phase:" + phase.name();
    std::map<std::string, std::size_t> slotOf;
    for (const auto& r : phase.refs()) {
      RefSlot rs;
      const auto it = slotOf.find(r.array);
      if (it != slotOf.end()) {
        rs.slot = it->second;
      } else {
        rs.slot = pp.slotArrays.size();
        slotOf.emplace(r.array, rs.slot);
        pp.slotArrays.push_back(r.array);
      }
      rs.privatized = phase.isPrivatized(r.array);
      if (!rs.privatized) {
        const auto dit = plan.data.find(r.array);
        AD_REQUIRE(dit != plan.data.end(), "plan missing array " + r.array);
        const std::int64_t size = evalInt(program.array(r.array).size, params, "array size");
        rs.owners = cachedOwnerMap(ownerCache, r.array, dit->second[k], size, H);
        // Halo replicas serve reads only (Theorem 1c: overlap must be
        // read-only to stay consistent without updates).
        if (r.kind == ir::AccessKind::kRead) {
          if (auto hit = plan.halo.find(r.array); hit != plan.halo.end()) {
            rs.halo = hit->second[k];
          }
        }
      }
      pp.refs.push_back(rs);
    }

    if (k > 0) {
      for (const auto& arr : program.arrays()) {
        const auto it = plan.data.find(arr.name);
        if (it == plan.data.end()) continue;
        const dsm::DataDistribution& prev = it->second[k - 1];
        const dsm::DataDistribution& next = it->second[k];
        if (prev == next) continue;
        if (!prev.hasOwner() || !next.hasOwner()) continue;
        if (!dsm::redistributionMovesData(program, arr.name, k)) continue;
        const std::int64_t size = evalInt(arr.size, params, "array size");
        jobs[k].push_back(RedistJob{arr.name, size,
                                    cachedOwnerMap(ownerCache, arr.name, prev, size, H),
                                    cachedOwnerMap(ownerCache, arr.name, next, size, H)});
      }
    }

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
  }

  // ------------------------------------------------------------------
  // The parallel replay: one thread per simulated processor.
  // ------------------------------------------------------------------
  std::vector<Shard> shards(static_cast<std::size_t>(H));
  for (auto& s : shards) {
    s.access.resize(numPhases);
    s.redistWords.resize(numPhases);
    s.redistPairs.resize(numPhases);
    for (std::size_t k = 0; k < numPhases; ++k) {
      s.access[k].assign(prep[k].slotArrays.size(), dsm::ArrayCounts{});
      s.redistWords[k].assign(jobs[k].size(), 0);
      s.redistPairs[k].resize(jobs[k].size());
    }
  }

  std::barrier<> phaseBarrier(static_cast<std::ptrdiff_t>(H));
  std::atomic<bool> abort{false};

  // The workers are raw threads, not pool tasks, so the submitting thread's
  // budget/cancellation context must be forwarded by hand (as
  // ThreadPool::submit does). Each worker polls the token every 4096
  // accesses: a cancelled service request aborts the replay in bounded work
  // instead of enumerating the remaining millions of accesses.
  const support::RobustnessContext robustness = support::RobustnessContext::capture();

  // Per-phase telemetry: each worker tags its spans with its simulated
  // processor number (main thread stays tid 0) and tallies the time it
  // spends parked on the two phase barriers. The barrier clock reads are two
  // per phase per thread — noise next to the per-access walk — and the
  // counter reference is resolved once, outside the workers.
  obs::Counter& barrierWaitUs = obs::metrics().counter("ad.sim.barrier_wait_us");
  const bool traceOn = obs::tracer().enabled();
  if (traceOn) {
    for (std::int64_t t = 0; t < H; ++t) {
      obs::tracer().nameThread(t + 1, "sim.p" + std::to_string(t));
    }
  }

  const auto worker = [&](std::int64_t t) {
    const support::RobustnessContextScope robustnessScope(robustness);
    std::int64_t sinceCancelPoll = 0;
    obs::Tracer::setCurrentThreadId(t + 1);
    // Join the contention profiler's per-thread timeline under the same name
    // as the Perfetto track, so sim barrier stalls line up with pool/lock
    // waits in the ad.profile.v1 summary.
    const bool profiled = obs::profiler().enabled();
    if (profiled) obs::profiler().bindCurrentThread("sim.p" + std::to_string(t));
    const std::int64_t workerStartUs = obs::Profiler::nowUs();
    Shard& shard = shards[static_cast<std::size_t>(t)];
    std::int64_t waitedUs = 0;
    const auto awaitBarrier = [&] {
      const std::int64_t t0 = obs::tracer().nowUs();
      phaseBarrier.arrive_and_wait();
      const std::int64_t t1 = obs::tracer().nowUs();
      waitedUs += t1 - t0;
      if (traceOn) {
        obs::tracer().record(
            obs::TraceEvent{"sim.barrier_wait", "sim", t0, t1 - t0, t + 1});
      }
    };
    for (std::size_t k = 0; k < numPhases; ++k) {
      // Phase-entry communication: count the owner changes of every
      // redistribution, sharded by contiguous address range.
      if (!jobs[k].empty()) {
        obs::Span redistSpan("sim.redistribute", "sim");
        for (std::size_t j = 0; j < jobs[k].size(); ++j) {
          const RedistJob& job = jobs[k][j];
          const std::int64_t lo = job.size * t / H;
          const std::int64_t hi = job.size * (t + 1) / H;
          for (std::int64_t a = lo; a < hi; ++a) {
            const std::int64_t src = job.prev->owner(a);
            const std::int64_t dst = job.next->owner(a);
            if (src == dst) continue;
            ++shard.redistWords[k][j];
            shard.redistPairs[k][j].insert({src, dst});
          }
        }
      }
      // The DOALL cannot start before the data is in place.
      awaitBarrier();
      if (!abort.load(std::memory_order_relaxed)) {
        const ir::Phase& phase = program.phase(k);
        const PhasePrep& pp = prep[k];
        obs::Span phaseSpan(pp.spanName, "sim");
        const auto keep = [&](std::int64_t iter) {
          // Phases with no DOALL run on processor 0 (iter reported as 0).
          return phase.hasParallelLoop() ? pp.sched.executor(iter, H) == t : t == 0;
        };
        try {
          ir::forEachAccessWhere(
              program, phase, params, keep,
              [&](const ir::ConcreteAccess& acc, const ir::Bindings&) {
                if ((++sinceCancelPoll & 0xFFF) == 0) support::throwIfCancelled();
                const std::size_t refIdx =
                    static_cast<std::size_t>(acc.ref - phase.refs().data());
                const RefSlot& rs = pp.refs[refIdx];
                dsm::ArrayCounts& c = shard.access[k][rs.slot];
                if (rs.privatized || rs.owners == nullptr ||
                    rs.owners->isLocal(acc.address, t, rs.halo)) {
                  ++c.local;
                } else {
                  ++c.remote;
                  c.remoteBytes += opts.wordBytes;
                }
              });
        } catch (...) {
          shard.error = std::current_exception();
          abort.store(true, std::memory_order_relaxed);
        }
      }
      // DOALL join: phase k is complete everywhere before phase k+1 begins.
      awaitBarrier();
    }
    barrierWaitUs.add(waitedUs);
    if (profiled) {
      obs::ThreadStats& stats = obs::profiler().threadStats("");
      stats.barrierWaitUs.fetch_add(waitedUs, std::memory_order_relaxed);
      stats.workUs.fetch_add(obs::Profiler::nowUs() - workerStartUs - waitedUs,
                             std::memory_order_relaxed);
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(H));
  for (std::int64_t t = 0; t < H; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  result.wallSeconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  for (const auto& s : shards) {
    if (s.error) std::rethrow_exception(s.error);
  }

  // ------------------------------------------------------------------
  // Aggregation (main thread, workers joined).
  // ------------------------------------------------------------------
  for (std::size_t k = 0; k < numPhases; ++k) {
    dsm::PhaseCounts pc;
    pc.phase = program.phase(k).name();
    for (std::size_t slot = 0; slot < prep[k].slotArrays.size(); ++slot) {
      dsm::ArrayCounts total;
      for (const auto& s : shards) {
        total.local += s.access[k][slot].local;
        total.remote += s.access[k][slot].remote;
        total.remoteBytes += s.access[k][slot].remoteBytes;
      }
      pc.arrays.emplace(prep[k].slotArrays[slot], total);
      result.totalAccesses += total.local + total.remote;
    }
    result.observed.phases.push_back(std::move(pc));

    for (std::size_t j = 0; j < jobs[k].size(); ++j) {
      dsm::RedistributionStats rs;
      rs.array = jobs[k][j].array;
      rs.beforePhase = k;
      std::set<std::pair<std::int64_t, std::int64_t>> pairs;
      for (const auto& s : shards) {
        rs.wordsMoved += s.redistWords[k][j];
        pairs.insert(s.redistPairs[k][j].begin(), s.redistPairs[k][j].end());
      }
      rs.messages = static_cast<std::int64_t>(pairs.size());
      if (rs.wordsMoved > 0) result.observed.redistributions.push_back(std::move(rs));
    }
  }

  // ------------------------------------------------------------------
  // Telemetry: traffic totals and per-processor/per-phase distributions,
  // derived from the already-aggregated shards (the per-access hot path
  // above carries no instrumentation).
  // ------------------------------------------------------------------
  obs::MetricsRegistry& reg = obs::metrics();
  std::int64_t localTotal = 0;
  std::int64_t remoteTotal = 0;
  std::int64_t remoteBytesTotal = 0;
  obs::Histogram& localHist = reg.histogram("ad.sim.local_per_proc_phase");
  obs::Histogram& remoteHist = reg.histogram("ad.sim.remote_per_proc_phase");
  for (std::size_t k = 0; k < numPhases; ++k) {
    for (std::int64_t t = 0; t < H; ++t) {
      const Shard& s = shards[static_cast<std::size_t>(t)];
      std::int64_t local = 0;
      std::int64_t remote = 0;
      for (std::size_t slot = 0; slot < prep[k].slotArrays.size(); ++slot) {
        local += s.access[k][slot].local;
        remote += s.access[k][slot].remote;
        remoteBytesTotal += s.access[k][slot].remoteBytes;
      }
      localHist.observe(local);
      remoteHist.observe(remote);
      localTotal += local;
      remoteTotal += remote;
    }
  }
  reg.counter("ad.sim.local_accesses").add(localTotal);
  reg.counter("ad.sim.remote_accesses").add(remoteTotal);
  reg.counter("ad.sim.remote_bytes").add(remoteBytesTotal);
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
