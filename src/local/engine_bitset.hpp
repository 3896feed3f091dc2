// Dense word-addressable bitsets — the layout primitives of engine v3
// (local/message_engine.hpp): the double-buffered per-half-edge presence
// map, the active/drain frontiers, and the packed per-node algorithm state
// of the migrated round algorithms all live in these.
//
// Design constraints the primitives encode:
//
//  * Word-at-a-time everything: iteration is ctz-driven over nonzero
//    words, population counts are popcount sums, and clearing is either a
//    word-fill (dense) or per-bit resets driven by a known set of owners
//    (sparse) — never a bit-by-bit scan.
//  * Two write disciplines. Node-indexed bitsets (frontier, done flags,
//    boolean algorithm state) are written through plain stores by phases
//    that are chunked on word boundaries, so one worker owns every word it
//    touches. Edge/port-indexed bitsets (message presence, port liveness)
//    interleave many nodes' bits in one word, so concurrent writers go
//    through fetch_or/fetch_and on std::atomic_ref — OR/AND of disjoint
//    masks commute, keeping parallel runs bit-identical to serial ones.
//  * Zero steady-state allocations: capacity is fixed at construction and
//    every mutator reuses it.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/check.hpp"

namespace padlock {

/// A fixed-capacity dense bitset exposing its 64-bit words. Bit i lives in
/// word i/64 at position i%64. Words beyond the last full one are padded
/// with zeros and kept zero by every mutator.
class WordBitset {
 public:
  static constexpr std::size_t kWordBits = 64;

  WordBitset() = default;
  explicit WordBitset(std::size_t bits)
      : bits_(bits), words_((bits + kWordBits - 1) / kWordBits, 0) {}

  [[nodiscard]] std::size_t size() const { return bits_; }
  [[nodiscard]] std::size_t num_words() const { return words_.size(); }
  [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }
  [[nodiscard]] std::uint64_t* words() { return words_.data(); }
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return words_[w]; }
  [[nodiscard]] std::uint64_t& word(std::size_t w) { return words_[w]; }

  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  /// Plain read-modify-write: callers must own the word (serial phase, or
  /// a pooled phase chunked on word boundaries).
  void set(std::size_t i) { words_[i / kWordBits] |= bit_mask(i); }
  void reset(std::size_t i) { words_[i / kWordBits] &= ~bit_mask(i); }

  /// Atomic set returning the previous value of bit i, for words shared
  /// between concurrent writers (the edge-indexed layouts). Relaxed
  /// ordering suffices: phases are separated by the pool's join barrier,
  /// and OR of per-writer-disjoint masks commutes, so the final word value
  /// is order-independent. The returned bit is exact whenever bit i has a
  /// single writer (concurrent writers only touch *other* bits of the
  /// word), as in the port-liveness kill path.
  bool fetch_set_atomic(std::size_t i) {
    const std::uint64_t old =
        std::atomic_ref<std::uint64_t>(words_[i / kWordBits])
            .fetch_or(bit_mask(i), std::memory_order_relaxed);
    return (old >> (i % kWordBits)) & 1u;
  }
  /// Atomic read for words that concurrent writers may be touching (TSan
  /// visibility; the loaded bits of this reader's own nodes are stable).
  [[nodiscard]] bool test_atomic(std::size_t i) const {
    const std::uint64_t w = std::atomic_ref<const std::uint64_t>(
                                words_[i / kWordBits])
                                .load(std::memory_order_relaxed);
    return (w >> (i % kWordBits)) & 1u;
  }

  /// Word-granular OR/AND-NOT: `shared` routes the RMW through atomic
  /// fetch_or/fetch_and for words other writers may touch concurrently
  /// (disjoint masks, so the result is order-independent either way).
  void or_word(std::size_t w, std::uint64_t mask, bool shared) {
    if (shared)
      std::atomic_ref<std::uint64_t>(words_[w])
          .fetch_or(mask, std::memory_order_relaxed);
    else
      words_[w] |= mask;
  }
  void andnot_word(std::size_t w, std::uint64_t mask, bool shared) {
    if (shared)
      std::atomic_ref<std::uint64_t>(words_[w])
          .fetch_and(~mask, std::memory_order_relaxed);
    else
      words_[w] &= ~mask;
  }

  /// Sets every bit of [begin, end) — the contiguous-range fast path of
  /// the engine's send/clear phases (a node's out-slots are one CSR
  /// range). Boundary words may interleave other ranges' bits, so `shared`
  /// makes their RMW atomic; full interior words belong to this range
  /// alone and are plain-filled either way.
  void set_range(std::size_t begin, std::size_t end, bool shared) {
    if (begin >= end) return;
    const std::size_t wb = begin / kWordBits;
    const std::size_t we = (end - 1) / kWordBits;
    const std::uint64_t lo = ~std::uint64_t{0} << (begin % kWordBits);
    const std::uint64_t hi =
        ~std::uint64_t{0} >> (kWordBits - 1 - ((end - 1) % kWordBits));
    if (wb == we) {
      or_word(wb, lo & hi, shared);
      return;
    }
    or_word(wb, lo, shared);
    for (std::size_t w = wb + 1; w < we; ++w) words_[w] = ~std::uint64_t{0};
    or_word(we, hi, shared);
  }
  /// Clears every bit of [begin, end); same sharing discipline as
  /// set_range.
  void reset_range(std::size_t begin, std::size_t end, bool shared) {
    if (begin >= end) return;
    const std::size_t wb = begin / kWordBits;
    const std::size_t we = (end - 1) / kWordBits;
    const std::uint64_t lo = ~std::uint64_t{0} << (begin % kWordBits);
    const std::uint64_t hi =
        ~std::uint64_t{0} >> (kWordBits - 1 - ((end - 1) % kWordBits));
    if (wb == we) {
      andnot_word(wb, lo & hi, shared);
      return;
    }
    andnot_word(wb, lo, shared);
    for (std::size_t w = wb + 1; w < we; ++w) words_[w] = 0;
    andnot_word(we, hi, shared);
  }

  /// Word-fill clear of the whole set (the dense-round path).
  void clear_all() {
    if (!words_.empty())
      std::memset(words_.data(), 0, words_.size() * sizeof(std::uint64_t));
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t c = 0;
    for (const std::uint64_t w : words_) c += std::popcount(w);
    return c;
  }

  [[nodiscard]] bool any() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

 private:
  [[nodiscard]] static std::uint64_t bit_mask(std::size_t i) {
    return std::uint64_t{1} << (i % kWordBits);
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// ctz-driven visit of every set bit of `word`: fn(base + bit_position),
/// ascending. The engine's frontier scans are this loop over nonzero words.
template <typename Fn>
inline void for_each_set_bit(std::uint64_t word, std::size_t base,
                             const Fn& fn) {
  while (word != 0) {
    const int b = std::countr_zero(word);
    word &= word - 1;  // drop the lowest set bit
    fn(base + static_cast<std::size_t>(b));
  }
}

/// Whole-set visit in ascending index order (test/diagnostic convenience;
/// the engine inlines the word loop to fuse it with phase chunking).
template <typename Fn>
inline void for_each_set_bit(const WordBitset& bits, const Fn& fn) {
  for (std::size_t w = 0; w < bits.num_words(); ++w)
    for_each_set_bit(bits.word(w), w * WordBitset::kWordBits, fn);
}

/// The double-buffered presence map of engine v3: one bit per half-edge
/// slot, two buffers indexed by round parity. A round's sends set bits in
/// its own parity buffer and its steps read only that buffer, so bits of
/// round r can never alias into round r+1 even before any clearing; the
/// end-of-round clear (word-fill when dense, per-sender bit resets when
/// sparse) retires the buffer before round r+2 reuses it. The planted
/// stale-bit tests in tests/engine_bitset_test.cpp pin both halves of that
/// argument.
///
/// A *sticky* map has one buffer that every round shares and nobody
/// clears: the engine uses it for final-only senders (a node sends only
/// once its state is final, and always the same message), whose bits may
/// outlive the round that set them.
class PresenceBuffers {
 public:
  PresenceBuffers() = default;
  explicit PresenceBuffers(std::size_t slots, bool sticky = false)
      : bufs_{WordBitset(slots), WordBitset(sticky ? 0 : slots)},
        parity_mask_(sticky ? 0 : 1) {}

  [[nodiscard]] WordBitset& buffer(int round) {
    return bufs_[round & parity_mask_];
  }
  [[nodiscard]] const WordBitset& buffer(int round) const {
    return bufs_[round & parity_mask_];
  }

  [[nodiscard]] std::size_t bytes() const {
    return (bufs_[0].num_words() + bufs_[1].num_words()) *
           sizeof(std::uint64_t);
  }

 private:
  WordBitset bufs_[2];
  int parity_mask_ = 1;
};

}  // namespace padlock
