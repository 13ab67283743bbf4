// Parallel DSM access-trace simulator.
//
// dsm::simulate() charges model cycles from closed-form access counts; this
// module replays every access with *real* parallelism — P simulated
// processors, one std::thread each — and tallies what the paper's Theorems 1
// and 2 predict:
// per-phase, per-array local vs. remote access counts and remote bytes moved.
// Iterations of each DOALL are walked CYCLIC(p_k) exactly as the plan
// schedules them, so thread t executes precisely the iterations processor t
// would execute, against the plan's BLOCK-CYCLIC(b) owner maps.
//
// Concurrency structure (ThreadSanitizer-clean by construction):
//  - every thread owns a cache-line-padded counter shard; no shared writes;
//  - a std::barrier separates phases, mirroring the DOALL join on the DSM
//    machine: redistribution work for the phase is sharded by address range,
//    counted, then the access walk starts only after all threads arrive;
//  - owner maps are built on the main thread and read shared.
//
// The result feeds dsm::validateLocality(), which compares the observed
// communication against the LCG's Theorem-1/2 edge labels.
#pragma once

#include <cstdint>
#include <string>

#include "dsm/validate.hpp"

namespace ad::sim {

struct SimOptions {
  std::int64_t processors = 8;  ///< simulated PEs; one worker std::thread each
  std::int64_t wordBytes = 8;   ///< bytes per array element (remote-byte tallies)
};

struct TraceResult {
  dsm::ObservedTrace observed;      ///< per-phase/per-array counts + comm events
  std::int64_t processors = 1;      ///< simulated PEs (= worker threads)
  std::int64_t totalAccesses = 0;
  double wallSeconds = 0.0;         ///< host wall time of the replay

  [[nodiscard]] double accessesPerSecond() const {
    return wallSeconds > 0.0 ? static_cast<double>(totalAccesses) / wallSeconds : 0.0;
  }
  [[nodiscard]] double localFraction() const;
  [[nodiscard]] std::string str() const;
};

/// Replays `program` under `plan` on opts.processors simulated PEs. The plan
/// must cover every phase (same contract as dsm::simulate). Throws
/// AnalysisError/ProgramError on unanalyzable inputs; worker-thread errors are
/// rethrown on the calling thread.
[[nodiscard]] TraceResult simulateTrace(const ir::Program& program, const ir::Bindings& params,
                                        const dsm::ExecutionPlan& plan, const SimOptions& opts);

}  // namespace ad::sim
