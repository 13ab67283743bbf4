#include "sim/owner_map.hpp"

#include <algorithm>

#include "support/budget.hpp"
#include "support/diagnostics.hpp"

namespace ad::sim {

OwnerMap::OwnerMap(const dsm::DataDistribution& dist, std::int64_t size, std::int64_t processors)
    : dist_(dist), size_(size), processors_(processors) {
  AD_REQUIRE(size >= 0, "negative array size");
  AD_REQUIRE(processors >= 1, "need at least one processor");
  if (!dist_.hasOwner()) return;
  owners_.resize(static_cast<std::size_t>(size));
  support::ExpiryPoll poll;
  for (std::int64_t a = 0; a < size;) {
    const std::int64_t end = std::min(size, dist_.ownerRunEnd(a));
    poll.tick(static_cast<std::uint64_t>(end - a));
    std::fill(owners_.begin() + a, owners_.begin() + end,
              static_cast<std::int32_t>(dist_.owner(a, processors)));
    a = end;
  }
}

}  // namespace ad::sim
