#include "comm/schedule.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "dsm/access_count.hpp"
#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::comm {

std::int64_t Message::words() const {
  std::int64_t n = 0;
  for (const auto& r : ranges) n += r.words();
  return n;
}

std::int64_t CommSchedule::totalWords() const {
  std::int64_t n = 0;
  for (const auto& m : messages_) n += m.words();
  return n;
}

double CommSchedule::time(const dsm::MachineParams& machine) const {
  // Each source processor issues its puts back-to-back; sources proceed in
  // parallel, so the schedule takes as long as the busiest source.
  std::map<std::int64_t, double> perSource;
  for (const auto& m : messages_) {
    perSource[m.src] +=
        machine.putLatency + static_cast<double>(m.words()) * machine.perWord;
  }
  double worst = 0.0;
  for (const auto& [src, t] : perSource) worst = std::max(worst, t);
  return worst;
}

std::string CommSchedule::str() const {
  std::ostringstream os;
  os << (pattern_ == Pattern::kGlobal ? "global" : "frontier") << " communication for "
     << array_ << " (" << messages_.size() << " messages, " << totalWords() << " words)\n";
  for (const auto& m : messages_) {
    os << "  PE " << m.src << " -> PE " << m.dst << " (" << m.words() << " words):";
    const std::size_t shown = std::min<std::size_t>(4, m.ranges.size());
    for (std::size_t i = 0; i < shown; ++i) {
      os << " put " << array_ << "[" << m.ranges[i].begin << ".." << m.ranges[i].end << ")";
    }
    if (m.ranges.size() > shown) os << " ... (" << m.ranges.size() - shown << " more ranges)";
    os << "\n";
  }
  return os.str();
}

namespace {

/// Aggregates ranges arriving in address order into one message per
/// (src, dst) pair. A dense H x H table maps each pair to its message, so a
/// range costs O(1); reading the table in order puts the messages in pair order.
class Aggregator {
 public:
  explicit Aggregator(std::int64_t processors)
      : h_(processors), index_(static_cast<std::size_t>(checkedMul(processors, processors)), -1) {}

  /// Appends [begin, end) to the (src, dst) message, coalescing it with the
  /// message's last range when they touch.
  void append(std::int64_t src, std::int64_t dst, std::int64_t begin, std::int64_t end) {
    std::int32_t& i = index_[static_cast<std::size_t>(src * h_ + dst)];
    if (i < 0) {
      i = static_cast<std::int32_t>(messages_.size());
      messages_.push_back(Message{src, dst, {}});
    }
    auto& ranges = messages_[static_cast<std::size_t>(i)].ranges;
    if (!ranges.empty() && ranges.back().end == begin) {
      ranges.back().end = end;
    } else {
      ranges.push_back(Range{begin, end});
    }
  }

  /// One message per (src, dst) pair, in pair order.
  std::vector<Message> finish() && {
    std::vector<Message> out;
    out.reserve(messages_.size());
    for (const std::int32_t i : index_) {
      if (i >= 0) out.push_back(std::move(messages_[static_cast<std::size_t>(i)]));
    }
    return out;
  }

 private:
  std::int64_t h_;
  std::vector<std::int32_t> index_;
  std::vector<Message> messages_;
};

}  // namespace

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
  return CommSchedule(array, Pattern::kGlobal, std::move(messages).finish());
}

CommSchedule generateFrontier(const std::string& array, std::int64_t size,
                              const dsm::DataDistribution& dist, std::int64_t overlap,
                              std::int64_t processors) {
  AD_REQUIRE(dist.kind == dsm::DataDistribution::Kind::kBlockCyclic,
             "frontier update requires a BLOCK-CYCLIC distribution");
  AD_REQUIRE(overlap >= 1, "overlap width must be positive");
  // The owner of each block refreshes its replicated copy of the first
  // `overlap` elements of the following block, which the next owner holds.
  Aggregator messages(processors);
  support::ExpiryPoll poll;
  for (std::int64_t blockStart = 0; blockStart < size; blockStart += dist.block) {
    poll.tick();
    const std::int64_t nextStart = blockStart + dist.block;
    if (nextStart >= size) break;
    const std::int64_t dst = dist.owner(blockStart, processors);
    const std::int64_t src = dist.owner(nextStart, processors);
    if (src == dst) continue;
    messages.append(src, dst, nextStart, std::min(size, nextStart + overlap));
  }
  return CommSchedule(array, Pattern::kFrontier, std::move(messages).finish());
}

bool verifiesRedistribution(const CommSchedule& schedule, std::int64_t size,
                            const dsm::DataDistribution& from, const dsm::DataDistribution& to,
                            std::int64_t processors) {
  // Every (non-empty) range must lie in bounds, between distinct processors,
  // on owner runs whose owners are exactly its endpoints; no element may be
  // sent twice; and together the ranges must cover as many words as change
  // owner. Then they cover exactly the moving elements, each once. Ranges of
  // different (src, dst) pairs hold different elements, so overlaps are only
  // checked within a pair, in address order — already the order of a
  // generated schedule, so the sort is usually skipped.
  std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>> sent;
  std::int64_t words = 0;
  support::ExpiryPoll poll;
  for (const auto& m : schedule.messages()) {
    for (const auto& r : m.ranges) {
      poll.tick();
      if (r.end <= r.begin) continue;  // moves nothing
      if (r.begin < 0 || r.end > size || m.src == m.dst) return false;
      bool endpoints = true;
      dsm::forEachOwnerRun(from, to, processors, r.begin, r.end,
                           [&](std::int64_t, std::int64_t, std::int64_t src, std::int64_t dst) {
                             endpoints = endpoints && src == m.src && dst == m.dst;
                           });
      if (!endpoints) return false;
      sent.emplace_back(m.src, m.dst, r.begin, r.end);
      words += r.words();
    }
  }
  if (!std::is_sorted(sent.begin(), sent.end())) std::sort(sent.begin(), sent.end());
  for (std::size_t i = 1; i < sent.size(); ++i) {
    const auto& [src, dst, begin, end] = sent[i];
    const auto& [prevSrc, prevDst, prevBegin, prevEnd] = sent[i - 1];
    if (src == prevSrc && dst == prevDst && begin < prevEnd) return false;
  }
  std::int64_t moving = 0;
  std::int64_t messages = 0;
  dsm::countRedistribution(from, to, size, processors, moving, messages);
  return words == moving;
}

}  // namespace ad::comm
