// The wake-up calendar of the round engine (local/message_engine.hpp): the
// sleeping nodes of one run, ordered by the round they wake in.
//
// An algorithm that declares `int wake_round(NodeId v) const` promises
// that v has nothing to do before that round. The engine reads every wake
// round once, at run start, and keeps the sleepers here instead of on the
// frontier, so a node costs nothing until its round comes.
//
// Layout: when the largest wake round R is at most kDenseFactor · n, the
// sleepers are counting-sorted by round — 4 B per sleeper (node ids) plus
// R + 2 offsets, O(n + R) to build. Sparser wake rounds would make the
// offsets outweigh the nodes, so they fall back to one sort of packed
// (round, node) keys, 8 B per sleeper. Both orders visit a round's
// sleepers in ascending node id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "support/check.hpp"

namespace padlock {

class WakeCalendar {
 public:
  /// next_round() of an empty calendar.
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();
  /// Largest R / n served by the counting sort.
  static constexpr std::size_t kDenseFactor = 4;

  WakeCalendar() = default;

  /// `wake[v]` is v's wake round, or 0 when v does not sleep.
  explicit WakeCalendar(const std::vector<std::uint32_t>& wake) {
    std::size_t sleepers = 0;
    std::uint32_t last = 0;
    for (const std::uint32_t r : wake) {
      if (r == 0) continue;
      ++sleepers;
      last = std::max(last, r);
    }
    if (sleepers == 0) return;
    if (last <= kDenseFactor * wake.size()) {
      // Counting sort: start_[r] is the first slot of round r.
      start_.assign(static_cast<std::size_t>(last) + 2, 0);
      for (const std::uint32_t r : wake)
        if (r != 0) ++start_[r + 1];
      for (std::size_t r = 1; r < start_.size(); ++r)
        start_[r] += start_[r - 1];
      order_.resize(sleepers);
      for (std::size_t v = 0; v < wake.size(); ++v)
        if (wake[v] != 0) order_[start_[wake[v]]++] = static_cast<NodeId>(v);
      // Placement advanced every start_[r] to the start of round r + 1.
      for (std::size_t r = start_.size() - 1; r > 0; --r)
        start_[r] = start_[r - 1];
      start_[0] = 0;
      next_ = 0;
      skip_empty_rounds();
    } else {
      keys_.reserve(sleepers);
      for (std::size_t v = 0; v < wake.size(); ++v)
        if (wake[v] != 0)
          keys_.push_back((static_cast<std::uint64_t>(wake[v]) << 32) | v);
      std::sort(keys_.begin(), keys_.end());
      next_ = static_cast<std::int64_t>(keys_[0] >> 32);
    }
  }

  [[nodiscard]] bool empty() const { return next_ == kNever; }

  /// The earliest round a sleeper wakes in (kNever when none is left).
  [[nodiscard]] std::int64_t next_round() const { return next_; }

  /// Removes the sleepers of next_round(), calling fn(v) for each in
  /// ascending node order.
  template <typename Fn>
  void pop(const Fn& fn) {
    PADLOCK_REQUIRE(!empty());
    if (!start_.empty()) {
      const auto r = static_cast<std::size_t>(next_);
      for (std::uint32_t i = start_[r]; i < start_[r + 1]; ++i) fn(order_[i]);
      ++next_;
      skip_empty_rounds();
      return;
    }
    const auto r = static_cast<std::uint64_t>(next_);
    while (pos_ < keys_.size() && (keys_[pos_] >> 32) == r)
      fn(static_cast<NodeId>(keys_[pos_++] & 0xffffffffu));
    next_ = pos_ < keys_.size() ? static_cast<std::int64_t>(keys_[pos_] >> 32)
                                : kNever;
  }

  /// Resident footprint (counted into MessageEngineStats::bytes_state).
  [[nodiscard]] std::size_t bytes() const {
    return (order_.size() + start_.size()) * sizeof(std::uint32_t) +
           keys_.size() * sizeof(std::uint64_t);
  }

 private:
  // Advances next_ to the first non-empty round at or after it.
  void skip_empty_rounds() {
    const auto last = static_cast<std::int64_t>(start_.size()) - 2;
    while (next_ <= last && start_[static_cast<std::size_t>(next_)] ==
                                start_[static_cast<std::size_t>(next_) + 1])
      ++next_;
    if (next_ > last) next_ = kNever;
  }

  std::vector<NodeId> order_;          // counting sort: sleepers by round
  std::vector<std::uint32_t> start_;   // counting sort: R + 2 offsets
  std::vector<std::uint64_t> keys_;    // fallback: sorted (round << 32 | v)
  std::size_t pos_ = 0;                // fallback: first unvisited key
  std::int64_t next_ = kNever;
};

}  // namespace padlock
