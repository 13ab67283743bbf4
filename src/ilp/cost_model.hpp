// Parallel-overhead cost model (paper Section 4.3a, Eq. 7).
//
// The companion reports [7][8] with the measured cost functions are not
// available; this is a reconstruction from the paper's description:
//   - D^k(p): load-imbalance cost of phase k under CYCLIC(p) scheduling —
//     the excess work of the busiest processor (processor 0, counted by
//     dsm::IterationDistribution::iterationsOn) over the perfect share,
//     weighted by the phase's per-iteration work.
//   - C^kg(p): communication cost of a C edge leaving phase k (ilp::Model) —
//     MachineParams::transferTime of H*(H-1) aggregated one-sided puts
//     carrying the moved region.
//   - the frontier term of an overlap node (ilp::Model) prices
//     dsm::refreshTraffic with MachineParams::transferTime, as the cost model
//     charges the refresh.
// All are in abstract "cycles" from one parameter set, dsm::MachineParams,
// so ILP decisions and simulated outcomes are consistent.
#pragma once

#include <cstdint>

#include "dsm/machine.hpp"

namespace ad::ilp {

/// The machine's cost ratios; localAccess is the work of one local access.
using CostParams = dsm::MachineParams;

/// D^k: imbalance cost = (busiest - trip/H) * accessesPerIter * work.
[[nodiscard]] double imbalanceCost(std::int64_t trip, std::int64_t chunk,
                                   std::int64_t processors, double accessesPerIter,
                                   const CostParams& cp);

}  // namespace ad::ilp
