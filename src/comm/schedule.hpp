// Communication generation (Section 4.3b).
//
// For every C edge of the LCG the compiler must emit communication before
// the drain phase. The paper names two patterns:
//   - Global communications: a redistribution — every element whose owner
//     changes between the source and drain distributions moves with a
//     single-sided put. This module generates and verifies their schedules,
//     one per redistribution dsm::redistributes admits;
//   - Frontier communications: an update of the replicated overlap
//     sub-regions (width Delta_s) at the boundaries between neighbouring
//     processors' chunks. Their traffic is closed form
//     (dsm::refreshTraffic, both directions at every block boundary), so no
//     schedule is generated for them.
// Message aggregation packs all element ranges with the same (source,
// destination) pair into one message.
//
// A schedule is flat: one list of ranges in message order, and per message a
// header (src, dst, offset, count) naming its slice of that list, so building
// one allocates nothing per message. A redistribution schedule is correct
// exactly when, for each (src, dst) pair, the pair's non-empty ranges in
// address order tile the elements whose owner changes from src to dst; the
// verifier checks that in one owner-run walk.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsm/machine.hpp"

namespace ad::comm {

/// A contiguous run of array elements travelling between two processors.
struct Range {
  std::int64_t begin = 0;  ///< first element
  std::int64_t end = 0;    ///< one past last

  [[nodiscard]] std::int64_t words() const noexcept { return end - begin; }
};

/// One aggregated put as built by hand: everything processor `src` sends to
/// `dst`.
struct Message {
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::vector<Range> ranges;
};

/// One message of a schedule: `count` ranges from `offset` on in the
/// schedule's range list.
struct MessageHeader {
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::size_t offset = 0;
  std::size_t count = 0;
};

/// The put schedule of one global redistribution.
class CommSchedule {
 public:
  /// Flattens hand-built messages, keeping their order.
  CommSchedule(std::string array, const std::vector<Message>& messages);

  [[nodiscard]] const std::string& array() const noexcept { return array_; }
  [[nodiscard]] const std::vector<MessageHeader>& messages() const noexcept { return messages_; }
  /// Every message's ranges, in message order.
  [[nodiscard]] std::span<const Range> ranges() const noexcept { return ranges_; }
  /// The ranges of one of this schedule's messages.
  [[nodiscard]] std::span<const Range> ranges(const MessageHeader& m) const noexcept {
    return ranges().subspan(m.offset, m.count);
  }
  [[nodiscard]] std::size_t messageCount() const noexcept { return messages_.size(); }
  [[nodiscard]] std::int64_t words(const MessageHeader& m) const;
  [[nodiscard]] std::int64_t totalWords() const;

  /// SHMEM-style pseudo-code of the schedule ("PE s: put(X[b..e) -> PE d)").
  [[nodiscard]] std::string str() const;

 private:
  friend class Aggregator;  // builds the flat layout directly
  CommSchedule(std::string array, std::vector<MessageHeader> messages, std::vector<Range> ranges)
      : array_(std::move(array)), messages_(std::move(messages)), ranges_(std::move(ranges)) {}

  std::string array_;
  std::vector<MessageHeader> messages_;
  std::vector<Range> ranges_;
};

/// Global redistribution of `size` elements from distribution `from` to `to`.
/// Both must be BLOCK-CYCLIC.
[[nodiscard]] CommSchedule generateGlobal(const std::string& array, std::int64_t size,
                                          const dsm::DataDistribution& from,
                                          const dsm::DataDistribution& to,
                                          std::int64_t processors);

/// Verifies that `schedule` moves exactly the elements whose owner changes
/// between `from` and `to`, each exactly once, with correct endpoints: one
/// owner-run walk over [0, size) after a pass over the ranges. Messages may
/// come in any order, a pair may be split across messages and a range cut
/// into touching pieces; only a schedule not grouped like generateGlobal's
/// output is sorted first.
[[nodiscard]] bool verifiesRedistribution(const CommSchedule& schedule, std::int64_t size,
                                          const dsm::DataDistribution& from,
                                          const dsm::DataDistribution& to,
                                          std::int64_t processors);

}  // namespace ad::comm
