// Element-enumerating reference oracles for the closed-form back half.
//
// dsm::simulate counts accesses from arithmetic progressions and
// comm::generateGlobal / verifiesRedistribution walk owner runs. The
// functions here do the same work the obvious way — one access, one element
// at a time — and exist only so the tests can compare the two field by field.
#pragma once

#include <cstdint>
#include <string>

#include "comm/schedule.hpp"
#include "dsm/machine.hpp"

namespace ad::reference {

/// Replays every access of `program` under `plan` and charges it with
/// `machine`: per phase, global redistributions (element by element), then
/// frontier refreshes (H >= 2), then the phase's accesses.
[[nodiscard]] dsm::SimulationResult simulate(const ir::Program& program,
                                             const ir::Bindings& params,
                                             const dsm::MachineParams& machine,
                                             const dsm::ExecutionPlan& plan);

/// One (src, dst, element) tuple per moving element, sorted and coalesced.
[[nodiscard]] comm::CommSchedule generateGlobal(const std::string& array, std::int64_t size,
                                                const dsm::DataDistribution& from,
                                                const dsm::DataDistribution& to,
                                                std::int64_t processors);

/// Checks every element of every range, then per-element coverage.
[[nodiscard]] bool verifiesRedistribution(const comm::CommSchedule& schedule, std::int64_t size,
                                          const dsm::DataDistribution& from,
                                          const dsm::DataDistribution& to,
                                          std::int64_t processors);

}  // namespace ad::reference
