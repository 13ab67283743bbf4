#include "comm/schedule.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::comm {

CommSchedule::CommSchedule(std::string array, const std::vector<Message>& messages)
    : array_(std::move(array)) {
  messages_.reserve(messages.size());
  for (const auto& m : messages) {
    messages_.push_back(MessageHeader{m.src, m.dst, ranges_.size(), m.ranges.size()});
    ranges_.insert(ranges_.end(), m.ranges.begin(), m.ranges.end());
  }
}

std::int64_t CommSchedule::words(const MessageHeader& m) const {
  std::int64_t n = 0;
  for (const auto& r : ranges(m)) n += r.words();
  return n;
}

std::int64_t CommSchedule::totalWords() const {
  std::int64_t n = 0;
  for (const auto& r : ranges_) n += r.words();
  return n;
}

std::string CommSchedule::str() const {
  std::ostringstream os;
  os << "global communication for "
     << array_ << " (" << messages_.size() << " messages, " << totalWords() << " words)\n";
  for (const auto& m : messages_) {
    os << "  PE " << m.src << " -> PE " << m.dst << " (" << words(m) << " words):";
    const std::size_t shown = std::min<std::size_t>(4, m.count);
    for (const auto& r : ranges(m).first(shown)) {
      os << " put " << array_ << "[" << r.begin << ".." << r.end << ")";
    }
    if (m.count > shown) os << " ... (" << m.count - shown << " more ranges)";
    os << "\n";
  }
  return os.str();
}

/// Aggregates ranges, arriving in address order within each (src, dst) pair,
/// into one message per pair. Ranges go to one flat list, and a dense H x H
/// table holds each pair's last range, so a range costs O(1) and one that
/// touches its pair's last range extends it. finish() places the ranges in
/// pair order with one counting pass.
class Aggregator {
 public:
  explicit Aggregator(std::int64_t processors)
      : h_(processors), last_(static_cast<std::size_t>(checkedMul(processors, processors)), -1) {}

  void append(std::int64_t src, std::int64_t dst, std::int64_t begin, std::int64_t end) {
    const auto pair = static_cast<std::size_t>(src * h_ + dst);
    std::int64_t& last = last_[pair];
    if (last >= 0 && runs_[static_cast<std::size_t>(last)].range.end == begin) {
      runs_[static_cast<std::size_t>(last)].range.end = end;
    } else {
      last = static_cast<std::int64_t>(runs_.size());
      runs_.push_back(Run{pair, Range{begin, end}});
    }
  }

  /// One message per (src, dst) pair, in pair order.
  CommSchedule finish(const std::string& array) && {
    // The table turns into each pair's range count, then its first slot.
    std::fill(last_.begin(), last_.end(), 0);
    for (const Run& r : runs_) ++last_[r.pair];
    std::vector<MessageHeader> messages;
    std::size_t offset = 0;
    for (std::size_t pair = 0; pair < last_.size(); ++pair) {
      const auto count = static_cast<std::size_t>(last_[pair]);
      if (count == 0) continue;
      const auto p = static_cast<std::int64_t>(pair);
      messages.push_back(MessageHeader{p / h_, p % h_, offset, count});
      last_[pair] = static_cast<std::int64_t>(offset);
      offset += count;
    }
    std::vector<Range> ranges(runs_.size());
    for (const Run& r : runs_) ranges[static_cast<std::size_t>(last_[r.pair]++)] = r.range;
    return CommSchedule(array, std::move(messages), std::move(ranges));
  }

 private:
  struct Run {
    std::size_t pair;
    Range range;
  };
  std::int64_t h_;
  std::vector<std::int64_t> last_;
  std::vector<Run> runs_;
};

CommSchedule generateGlobal(const std::string& array, std::int64_t size,
                            const dsm::DataDistribution& from, const dsm::DataDistribution& to,
                            std::int64_t processors) {
  AD_REQUIRE(from.hasOwner() && to.hasOwner(),
             "global redistribution requires owner-bearing endpoints");
  // One range per constant-owner run whose owner changes.
  Aggregator messages(processors);
  dsm::forEachOwnerRun(from, to, processors, 0, size,
                       [&](std::int64_t begin, std::int64_t end, std::int64_t src,
                           std::int64_t dst) {
                         if (src != dst) messages.append(src, dst, begin, end);
                       });
  return std::move(messages).finish(array);
}

bool verifiesRedistribution(const CommSchedule& schedule, std::int64_t size,
                            const dsm::DataDistribution& from, const dsm::DataDistribution& to,
                            std::int64_t processors) {
  // The schedule is correct exactly when each (src, dst) pair's non-empty
  // ranges, in address order, tile the elements whose owner changes from src
  // to dst. First reject any non-empty range out of bounds, self-put or naming
  // a processor outside [0, H), and note whether the schedule is grouped as
  // generateGlobal emits it: non-empty messages in strictly increasing pair
  // order, each with non-empty ranges in address order.
  const std::int64_t h = processors;
  std::vector<std::int32_t> slot(static_cast<std::size_t>(checkedMul(h, h)), -1);  // pair -> cursor
  bool grouped = true;
  std::int64_t lastPair = -1;
  support::ExpiryPoll poll;
  for (const auto& m : schedule.messages()) {
    const auto rs = schedule.ranges(m);
    for (std::size_t i = 0; i < rs.size(); ++i) {
      poll.tick();
      if (rs[i].end <= rs[i].begin) {  // moves nothing
        grouped = false;
        continue;
      }
      if (rs[i].begin < 0 || rs[i].end > size || m.src == m.dst || m.src < 0 || m.src >= h ||
          m.dst < 0 || m.dst >= h) {
        return false;
      }
      grouped = grouped && (i == 0 || rs[i - 1].begin <= rs[i].begin);
    }
    if (!grouped || rs.empty()) continue;  // a grouped message's endpoints are checked
    grouped = lastPair < m.src * h + m.dst;
    lastPair = m.src * h + m.dst;
  }
  if (!grouped) {
    // Regroup the non-empty ranges by pair, in address order, and check that.
    std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>> pieces;
    for (const auto& m : schedule.messages()) {
      for (const Range& r : schedule.ranges(m)) {
        if (r.begin < r.end) pieces.emplace_back(m.src, m.dst, r.begin, r.end);
      }
    }
    std::sort(pieces.begin(), pieces.end());
    Aggregator regrouped(h);
    for (const auto& [src, dst, begin, end] : pieces) regrouped.append(src, dst, begin, end);
    return verifiesRedistribution(
        std::move(regrouped).finish(schedule.array()), size, from, to, h);
  }

  // Per pair, its message's first unsent range and the address that range has
  // got to.
  struct Cursor {
    std::size_t next, stop;
    std::int64_t reached;
  };
  const auto ranges = schedule.ranges();
  std::vector<Cursor> cursors;
  for (const auto& m : schedule.messages()) {
    if (m.count == 0) continue;
    slot[static_cast<std::size_t>(m.src * h + m.dst)] = static_cast<std::int32_t>(cursors.size());
    cursors.push_back(Cursor{m.offset, m.offset + m.count, ranges[m.offset].begin});
  }

  // One walk: each moving run must continue its pair's first unsent range
  // where that range has got to; at the end every range must be used up.
  bool ok = true;
  dsm::forEachOwnerRun(
      from, to, h, 0, size,
      [&](std::int64_t a, std::int64_t end, std::int64_t src, std::int64_t dst) {
        if (src == dst || !ok) return;
        const std::int32_t i = slot[static_cast<std::size_t>(src * h + dst)];
        ok = i >= 0;
        while (ok && a < end) {
          Cursor& c = cursors[static_cast<std::size_t>(i)];
          ok = c.next < c.stop && c.reached == a;
          if (!ok) return;
          a = c.reached = std::min(ranges[c.next].end, end);
          if (a == ranges[c.next].end && ++c.next < c.stop) c.reached = ranges[c.next].begin;
        }
      });
  return ok && std::all_of(cursors.begin(), cursors.end(),
                           [](const Cursor& c) { return c.next == c.stop; });
}

}  // namespace ad::comm
