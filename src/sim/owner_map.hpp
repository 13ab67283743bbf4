// Precomputed element -> owner lookup tables.
//
// The trace replay classifies every access, so the owner of an address must
// be a load, not a divide chain (and for the folded "reverse" distribution,
// not a mod + min + divide chain). An OwnerMap materializes owner() over a
// whole array once per replay, one call per constant-owner run (ownerRunEnd);
// the construction polls cancellation and the deadline like the replay.
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/machine.hpp"

namespace ad::sim {

class OwnerMap {
 public:
  /// Materializes `dist` over addresses [0, size). Non-owner-bearing kinds
  /// (replicated) build no table: every address is local everywhere.
  OwnerMap(const dsm::DataDistribution& dist, std::int64_t size, std::int64_t processors);

  [[nodiscard]] const dsm::DataDistribution& distribution() const noexcept { return dist_; }
  [[nodiscard]] std::int64_t size() const noexcept { return size_; }

  /// True when the distribution assigns each element a single owner.
  [[nodiscard]] bool hasOwner() const noexcept { return dist_.hasOwner(); }

  /// Owning processor of `addr` (owner-bearing kinds only). Addresses beyond
  /// the materialized range fall back to the arithmetic form.
  [[nodiscard]] std::int64_t owner(std::int64_t addr) const {
    if (addr >= 0 && addr < static_cast<std::int64_t>(owners_.size())) {
      return owners_[static_cast<std::size_t>(addr)];
    }
    return dist_.owner(addr, processors_);
  }

  /// Is `addr` in `pe`'s local memory (owned block or `halo`-wide replicated
  /// frontier)? Replicated arrays are local everywhere.
  [[nodiscard]] bool isLocal(std::int64_t addr, std::int64_t pe, std::int64_t halo) const {
    if (!dist_.hasOwner()) return true;
    if (owner(addr) == pe) return true;
    if (halo <= 0) return false;
    return dist_.isLocal(addr, pe, processors_, halo);
  }

 private:
  dsm::DataDistribution dist_;
  std::int64_t size_ = 0;
  std::int64_t processors_ = 1;
  std::vector<std::int32_t> owners_;  ///< one entry per element; empty when !hasOwner()
};

}  // namespace ad::sim
