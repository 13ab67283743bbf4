#include "ilp/cost_model.hpp"

#include <algorithm>

namespace ad::ilp {

double imbalanceCost(std::int64_t trip, std::int64_t chunk, std::int64_t processors,
                     double accessesPerIter, const CostParams& cp) {
  AD_REQUIRE(trip >= 0 && processors >= 1, "bad scheduling parameters");
  const dsm::IterationDistribution sched{chunk};
  const double busiest = static_cast<double>(sched.iterationsOn(processors, 0, 0, trip));
  const double fair = static_cast<double>(trip) / static_cast<double>(processors);
  const double excess = std::max(0.0, busiest - fair);
  return excess * accessesPerIter * cp.localAccess;
}

}  // namespace ad::ilp
