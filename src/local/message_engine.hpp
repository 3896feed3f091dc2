// Message engine v3 — the one synchronous round executor behind every
// round-based algorithm of the library (the round-by-round face of the
// LOCAL model; message size and local computation are unbounded, but all
// algorithms here use small messages anyway).
//
// An algorithm models per-node state machines:
//
//   struct Alg {
//     using Message = ...;                     // regular, cheap to copy
//     // optional wire layout (see MessageTraits below); omitted = Message
//     // struct Wire { using Packed = ...; static Packed pack(...); ... };
//     // message to send on `port` of v this round (nullopt = silence)
//     std::optional<Message> send(NodeId v, int port, int round);
//     // inbox[p] is optional-like: `if (inbox[p]) use(*inbox[p])`
//     template <class Inbox>
//     void step(NodeId v, const Inbox& inbox, int round);
//     bool done(NodeId v) const;              // halted?
//     // optional: nothing to do before this round (see kEngineCalendar)
//     // int wake_round(NodeId v) const;
//   };
//
// The engine delivers the message sent on port p of u across the edge to
// the opposite endpoint's port (self-loops deliver between the loop's two
// ports of the same node) and returns the number of rounds executed.
//
// Execution model (each point replaced a layout of the retired v1/v2
// executors, whose outputs the committed reference map
// tests/data/engine_reference_map.json still pins):
//
//  * The message slab stores each algorithm's *wire* layout: MessageTraits
//    lets an algorithm declare a Packed type smaller than its in-step
//    Message (most algorithms send <= 8 bytes; the v2 slab stored the
//    worst-case per-phase union). pack() runs once per sent message in the
//    send phase, unpack() once per read in the step phase.
//  * Slots are indexed by *CSR port position* (Graph::port_offset), not by
//    half-edge index as in v2: a sender's out-slots are one contiguous
//    range, so the send phase streams sequential stores and sets presence
//    with word-masked ranges, and the sparse clear is one masked range
//    reset per sender. The read side pays one contiguous 4-byte load
//    through the graph's precomputed peer-port table (Graph::peer_port)
//    instead of v2's endpoint arithmetic.
//  * Uniform-send fast path: an algorithm whose send() ignores the port
//    (a broadcast — most of the migrated machines) declares
//    `static constexpr bool kUniformSend = true`; the engine then calls
//    send once per node and range-fills the out-slots.
//  * The presence map is a double-buffered dense bitset (engine_bitset.hpp)
//    — 1 bit per port slot instead of v2's 4-byte round stamp, read
//    through word masks by PackedInbox. Buffers alternate by round parity
//    (round r's bits can never alias into round r+1) and are word-cleared
//    between rounds: a dense round wipes the whole buffer with one fill,
//    a sparse round resets exactly the sender-owned ranges, so late rounds
//    stay O(active) like v2's stamp trick.
//  * Frontier, drain and done-tracking are word-at-a-time bitset scans:
//    phases iterate nonzero 64-bit words ctz-bit by ctz-bit, stats come
//    from popcounts, and the frontier rebuild rewrites whole words (a
//    node's halt clears its active bit and sets its drain bit in the same
//    word pass; last round's drain word is overwritten, which is exactly
//    the retire step).
//  * Every phase, serial or pooled, walks one busy-word list (the ascending
//    words with any active or drain bit) instead of every word, so a round
//    with a handful of busy nodes costs O(busy words), not O(n/64). The
//    rebuild compacts the list in place; calendar wakers merge into it.
//  * Wake-up calendar: an algorithm that declares wake_round(v) keeps its
//    sleepers off the frontier until their round (local/wake_calendar.hpp,
//    counting-sorted at run start). A round with no active, draining or
//    waking node is skipped in O(1) but still counted, against the
//    max_rounds budget too. Such algorithms send final-only (see
//    kEngineCalendar), so their presence map is one sticky buffer.
//  * Pooled phases are chunked on busy-list *entries*, i.e. on word
//    boundaries: a worker owns every 64-node word it touches, so
//    node-indexed state (including algorithms' packed boolean state) keeps
//    the plain-store per-node-write discipline and the deterministic
//    node-order rebuild of v2. Edge-indexed bits (presence) interleave
//    nodes within one word, so pooled sends set them via atomic fetch_or —
//    OR of disjoint masks commutes, keeping serial and parallel executions
//    bit-identical by construction.
//  * Zero steady-state allocations on the serial path (pinned at threads
//    = 1 by tests/message_engine_test.cpp); a pooled phase allocates what
//    one ThreadPool dispatch does (its join state and a task per chunk).
//    A *measured* pooling threshold keeps near-empty frontiers inline (see
//    kEnginePoolMinWords below), pinned by tests through
//    MessageEngineStats.pooled_phases/serial_phases.
//
// Halting contract (the active-set semantics): `done(v)` means v's state
// is final and v needs at most one more send. The engine keeps a node that
// halted in round r in the *drain* set for round r+1: it still sends (its
// notify/confirm messages go out) but no longer steps; after round r+1 it
// retires. The run ends once no node is active and no sleeper is left
// (a drain round still runs while sleepers wait). Algorithms must
// therefore (a) fold any final broadcast into the first round after
// halting, and (b) cope with what a retired node's out-slots read as:
//  * by default, silence forever — true for every per-round state machine
//    (a decided Luby node matters to neighbors for exactly one round);
//  * for final-only senders (calendar algorithms), the final message
//    forever: sticky presence keeps it readable, so a node that sleeps
//    until long after its neighbor retired still reads that neighbor's
//    final message when it wakes (sound in LOCAL, where the receiver could
//    have kept it). color-reduce is the in-tree example.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "local/engine_bitset.hpp"
#include "local/message_engine_stats.hpp"
#include "local/wake_calendar.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace padlock {

/// The layout seam of engine v3: how an algorithm's Message travels the
/// slab. The default is the identity — the slab stores Message itself.
/// An algorithm with a compact wire form declares a nested `Wire`:
///
///   struct Wire {
///     using Packed = std::uint64_t;              // the slab element
///     static Packed pack(const Message& m);      // lossless for every
///     static Message unpack(Packed p);           //   message ever sent
///   };
///
/// pack/unpack must round-trip exactly (bit-identity with the reference map
/// is pinned on it); assert in pack() when a field could overflow its packed
/// width. Only the send/step phases call them — algorithm code keeps
/// working with the unpacked Message.
template <typename Alg, typename = void>
struct MessageTraits {
  using Message = typename Alg::Message;
  using Packed = typename Alg::Message;
  static Packed pack(const Message& m) { return m; }
  static Message unpack(const Packed& p) { return p; }
};

template <typename Alg>
struct MessageTraits<Alg, std::void_t<typename Alg::Wire>> {
  using Message = typename Alg::Message;
  using Packed = typename Alg::Wire::Packed;
  static Packed pack(const Message& m) { return Alg::Wire::pack(m); }
  static Message unpack(const Packed& p) { return Alg::Wire::unpack(p); }
};

/// Second half of the layout seam: `static constexpr bool kUniformSend =
/// true` declares that send(v, port, round)'s *result* never depends on
/// the port (a per-round broadcast). The engine then calls send exactly
/// once per node per round — always with port 0, so a port-0-guarded side
/// effect like Luby's priority draw still fires — and fills the node's
/// whole out-range with the packed value. An algorithm whose messages or
/// send-side effects differ across ports (propose-accept's per-port
/// proposals) must not declare it.
template <typename Alg, typename = void>
inline constexpr bool kEngineUniformSend = false;
template <typename Alg>
inline constexpr bool
    kEngineUniformSend<Alg, std::void_t<decltype(Alg::kUniformSend)>> =
        Alg::kUniformSend;

/// Third part of the seam, detected like kUniformSend: an algorithm that
/// declares `int wake_round(NodeId v) const` runs on the wake-up calendar
/// (local/wake_calendar.hpp). The engine reads every node's wake round
/// once, at run start; a node is neither stepped nor sent for before it.
/// Declaring it is also a promise that sends are *final-only*: send(v)
/// returns a message only once done(v) holds, and the same message every
/// time (PADLOCK_ASSERTed). Presence bits of such a run are sticky — one
/// buffer, never cleared — so a sleeper that wakes long after a neighbor
/// drained still reads that neighbor's final message.
template <typename Alg, typename = void>
inline constexpr bool kEngineCalendar = false;
template <typename Alg>
inline constexpr bool kEngineCalendar<
    Alg, std::void_t<decltype(std::declval<const Alg&>().wake_round(
             NodeId{}))>> = true;

/// Per-node inbox of engine v3: packed messages in the CSR-position slab,
/// presence read via word masks from the round's presence-bitset buffer.
/// The port -> sender-slot mapping is one load from the graph's peer-port
/// row (contiguous for the reading node). inbox[p] is optional-like
/// (contextually bool, dereferencing to the Message); the Ref holds the
/// unpacked Message, so it stays valid independent of the inbox.
template <typename Alg>
class PackedInbox {
 public:
  using Traits = MessageTraits<Alg>;
  using Message = typename Traits::Message;
  using Packed = typename Traits::Packed;

  class Ref {
   public:
    explicit operator bool() const { return present_; }
    const Message& operator*() const {
      PADLOCK_REQUIRE(present_);
      return msg_;
    }
    const Message* operator->() const {
      PADLOCK_REQUIRE(present_);
      return &msg_;
    }

   private:
    friend class PackedInbox;
    Ref() = default;
    Message msg_{};
    bool present_ = false;
  };

  class Iterator {
   public:
    Ref operator*() const { return inbox_->operator[](port_); }
    Iterator& operator++() {
      ++port_;
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.port_ == b.port_;
    }

   private:
    friend class PackedInbox;
    Iterator(const PackedInbox* inbox, int port)
        : inbox_(inbox), port_(port) {}
    const PackedInbox* inbox_;
    int port_;
  };

  PackedInbox(const std::uint32_t* peers, int num_ports, const Packed* slab,
              const std::uint64_t* presence_words)
      : peers_(peers),
        num_ports_(num_ports),
        slab_(slab),
        presence_(presence_words) {}

  [[nodiscard]] int size() const { return num_ports_; }
  [[nodiscard]] Ref operator[](int port) const {
    const std::size_t slot = peers_[static_cast<std::size_t>(port)];
    Ref r;
    if ((presence_[slot / WordBitset::kWordBits] >>
         (slot % WordBitset::kWordBits)) &
        1u) {
      r.present_ = true;
      r.msg_ = Traits::unpack(slab_[slot]);
    }
    return r;
  }
  [[nodiscard]] Iterator begin() const { return Iterator(this, 0); }
  [[nodiscard]] Iterator end() const { return Iterator(this, size()); }

 private:
  const std::uint32_t* peers_;
  int num_ports_ = 0;
  const Packed* slab_;
  const std::uint64_t* presence_;
};

namespace detail {

/// Pooling threshold of the v3 phases, in nonzero frontier *words* (64
/// nodes each). Measured on the reference container (single socket, 4 pool
/// workers): one parallel_for dispatch+join costs ~20-60us, while a full
/// frontier word costs ~2-6us of phase work for the migrated state
/// machines, so pooling starts paying for itself at roughly 10-30 busy
/// words and is a clear win from ~50. Below the threshold the phase runs
/// inline — dispatching pool chunks for a near-empty frontier costs more
/// than the phase itself, and the serial path is what the
/// zero-allocation-per-round guarantee is pinned on. Pinned by the
/// tiny-frontier tests via MessageEngineStats.{pooled,serial}_phases.
inline constexpr std::size_t kEnginePoolMinWords = 48;

/// Chunk grain of pooled phases: 16 busy-list entries (busy words, up to
/// 1024 nodes) per chunk, the same scale as v2's node grain. Chunks are
/// whole words by construction, which is what keeps node-indexed state
/// single-writer (see file comment).
inline constexpr std::size_t kEngineWordGrain = 16;

}  // namespace detail

/// Executes `alg` on g until every node is done — the round executor every
/// round-based algorithm calls (see the file comment for the precise
/// lifecycle). `max_rounds` is the contract budget — exceeding it throws
/// ContractViolation (rounds skipped by the calendar count against it).
/// Returns the number of rounds executed. Serial and parallel
/// (exec_context().threads) executions are bit-identical.
template <typename Alg>
int run_message_rounds(const Graph& g, Alg& alg, std::int64_t max_rounds,
                       MessageEngineStats* stats = nullptr) {
  using Traits = MessageTraits<Alg>;
  using Packed = typename Traits::Packed;
  constexpr bool kCalendar = kEngineCalendar<Alg>;

  const std::size_t n = g.num_nodes();
  const std::size_t slots = 2 * g.num_edges();
  const std::uint32_t* peer = g.peer_port();
  const bool may_pool = resolved_threads() > 1;

  // Run-scoped buffers; nothing below allocates per round. Slots are
  // CSR port positions (see the file comment): sender-contiguous.
  std::vector<Packed> slab(slots);
  PresenceBuffers presence(slots, /*sticky=*/kCalendar);
  WordBitset active(n);
  WordBitset drain(n);
  const std::size_t num_words = active.num_words();

  // Sleepers go to the calendar; everyone else undone starts active. Each
  // wake round is read once into `wake` (4 B per node, freed before round
  // 1) for the calendar's counting sort.
  std::size_t active_count = 0;
  std::size_t drain_count = 0;
  WakeCalendar calendar;
  {
    std::vector<std::uint32_t> wake(kCalendar ? n : 0);
    for (NodeId v = 0; v < n; ++v) {
      if (alg.done(v)) continue;
      if constexpr (kCalendar) {
        const int r = alg.wake_round(v);
        if (r > 1) {
          wake[v] = static_cast<std::uint32_t>(r);
          continue;
        }
      }
      active.set(v);
      ++active_count;
    }
    if constexpr (kCalendar) calendar = WakeCalendar(wake);
  }

  // The busy-word list: the ascending words with any active or drain bit,
  // the one iteration structure of every phase, so a sparse round costs
  // O(busy words) serial or pooled. The rebuild compacts it in place and
  // wakers merge their fresh words in.
  std::vector<std::uint32_t> busy_list(num_words);
  std::vector<std::uint32_t> fresh(kCalendar ? num_words : 0);
  std::size_t busy_words = 0;
  for (std::size_t w = 0; w < num_words; ++w)
    if (active.word(w) != 0)
      busy_list[busy_words++] = static_cast<std::uint32_t>(w);

  MessageEngineStats local;
  local.bytes_slab = static_cast<std::int64_t>(slots * sizeof(Packed) +
                                               presence.bytes());
  local.bytes_state = static_cast<std::int64_t>(
      2 * num_words * sizeof(std::uint64_t) + calendar.bytes());

  std::int64_t round64 = 0;
  while (active_count > 0 || !calendar.empty()) {
    // Only sleepers left: jump to the next wake round in O(1). The skipped
    // rounds still count, against the budget too.
    if (active_count + drain_count == 0) round64 = calendar.next_round() - 1;
    PADLOCK_REQUIRE(round64 < max_rounds);
    PADLOCK_REQUIRE(round64 < std::numeric_limits<int>::max());
    ++round64;
    const int round = static_cast<int>(round64);

    if constexpr (kCalendar) {
      if (calendar.next_round() == round64) {
        std::size_t num_fresh = 0;
        calendar.pop([&](NodeId v) {
          const std::size_t w = v / WordBitset::kWordBits;
          if ((active.word(w) | drain.word(w)) == 0) {
            ++busy_words;
            fresh[num_fresh++] = static_cast<std::uint32_t>(w);
          }
          active.set(v);
          ++active_count;
        });
        if (num_fresh > 0) {
          // Both lists ascend: merge from the back, in place.
          std::size_t i = busy_words - num_fresh, j = num_fresh;
          std::size_t k = busy_words;
          while (j > 0) {
            if (i > 0 && busy_list[i - 1] > fresh[j - 1])
              busy_list[--k] = busy_list[--i];
            else
              busy_list[--k] = fresh[--j];
          }
        }
      }
    }

    local.rounds = round64;
    local.node_steps += static_cast<std::int64_t>(active_count);
    local.node_sends += static_cast<std::int64_t>(active_count + drain_count);
    if (active_count > local.peak_active) local.peak_active = active_count;

    WordBitset& pres = presence.buffer(round);
    const bool pooled = may_pool && busy_words >= detail::kEnginePoolMinWords;

    // One phase: body(w) for every busy word, inline over the busy-word
    // list or through the pool in chunks of list entries. Entries are
    // distinct words, so a chunk owns every frontier word it writes.
    const auto run_phase = [&](const auto& body) {
      if (!pooled) {
        ++local.serial_phases;
        for (std::size_t i = 0; i < busy_words; ++i) body(busy_list[i]);
        return;
      }
      ++local.pooled_phases;
      parallel_for(0, busy_words, detail::kEngineWordGrain,
                   [&](std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) body(busy_list[i]);
                   });
    };

    // Send phase: active nodes and last round's halters write their own
    // contiguous out-range (packed message + presence bit per sent port;
    // silence writes nothing). Presence writes are word-masked: a uniform
    // sender range-fills, a per-port sender accumulates a word-local mask
    // and flushes once per word. Boundary presence words interleave other
    // nodes' bits, so pooled runs flush them atomically (OR of disjoint
    // masks commutes — still bit-identical).
    run_phase([&](std::size_t w) {
      std::uint64_t bits = active.word(w) | drain.word(w);
      const std::size_t base = w * WordBitset::kWordBits;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const NodeId v =
            static_cast<NodeId>(base + static_cast<std::size_t>(b));
        const auto [o, d] = g.port_span(v);
        if (d == 0) continue;
        if constexpr (kEngineUniformSend<Alg>) {
          if (auto m = alg.send(v, 0, round)) {
            const Packed pm = Traits::pack(*m);
            if constexpr (kCalendar) {
              PADLOCK_ASSERT(alg.done(v));
              PADLOCK_ASSERT(!pres.test_atomic(o) || slab[o] == pm);
            }
            Packed* out = slab.data() + o;
            for (std::size_t p = 0; p < d; ++p) out[p] = pm;
            pres.set_range(o, o + d, pooled);
          }
        } else {
          std::size_t wi = o / WordBitset::kWordBits;
          std::uint64_t mask = 0;
          for (std::size_t p = 0; p < d; ++p) {
            const std::size_t slot = o + p;
            const std::size_t sw = slot / WordBitset::kWordBits;
            if (sw != wi) {
              if (mask != 0) pres.or_word(wi, mask, pooled);
              wi = sw;
              mask = 0;
            }
            if (auto m = alg.send(v, static_cast<int>(p), round)) {
              const Packed pm = Traits::pack(*m);
              if constexpr (kCalendar) {
                PADLOCK_ASSERT(alg.done(v));
                PADLOCK_ASSERT(!pres.test_atomic(slot) || slab[slot] == pm);
              }
              slab[slot] = pm;
              mask |= std::uint64_t{1} << (slot % WordBitset::kWordBits);
            }
          }
          if (mask != 0) pres.or_word(wi, mask, pooled);
        }
      }
    });

    // Step phase: active nodes read their neighbors' out-slots through the
    // packed inbox view and advance their own state.
    run_phase([&](std::size_t w) {
      std::uint64_t bits = active.word(w);
      const std::size_t base = w * WordBitset::kWordBits;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const NodeId v =
            static_cast<NodeId>(base + static_cast<std::size_t>(b));
        const auto [o, d] = g.port_span(v);
        const PackedInbox<Alg> inbox(peer + o, static_cast<int>(d),
                                     slab.data(), pres.words());
        alg.step(v, inbox, round);
      }
    });

    // Presence clear (parity buffers only; sticky bits stay): this round's
    // buffer must be empty before round r+2 reuses it (the other parity
    // buffer covers r+1). A dense round wipes the words with one fill; a
    // sparse round resets each sender's whole out-range with one
    // word-masked sweep — every set bit belongs to a sender's out-range,
    // so the sweep over (active | drain) covers them all and late rounds
    // stay O(active).
    if constexpr (!kCalendar) {
      if (active_count + drain_count >= n / 8) {
        pres.clear_all();
      } else {
        run_phase([&](std::size_t w) {
          std::uint64_t bits = active.word(w) | drain.word(w);
          const std::size_t base = w * WordBitset::kWordBits;
          while (bits != 0) {
            const int b = std::countr_zero(bits);
            bits &= bits - 1;
            const NodeId v =
                static_cast<NodeId>(base + static_cast<std::size_t>(b));
            const auto [o, d] = g.port_span(v);
            if (d != 0) pres.reset_range(o, o + d, pooled);
          }
        });
      }
    }

    // Frontier rebuild, word at a time: nodes that halted this round move
    // from their active word to the same drain word; overwriting the drain
    // word retires last round's halters. Then one serial pass over the list
    // counts the frontiers and drops the words that went idle, keeping the
    // list ascending — deterministic for any thread count.
    run_phase([&](std::size_t w) {
      std::uint64_t keep = 0, halted = 0;
      std::uint64_t bits = active.word(w);
      const std::size_t base = w * WordBitset::kWordBits;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        const std::uint64_t mask = bits & (~bits + 1);  // lowest set bit
        bits &= bits - 1;
        const NodeId v =
            static_cast<NodeId>(base + static_cast<std::size_t>(b));
        if (alg.done(v)) halted |= mask;
        else keep |= mask;
      }
      active.word(w) = keep;
      drain.word(w) = halted;
    });
    active_count = 0;
    drain_count = 0;
    std::size_t len = 0;
    for (std::size_t i = 0; i < busy_words; ++i) {
      const std::uint32_t w = busy_list[i];
      active_count += static_cast<std::size_t>(std::popcount(active.word(w)));
      drain_count += static_cast<std::size_t>(std::popcount(drain.word(w)));
      if ((active.word(w) | drain.word(w)) != 0) busy_list[len++] = w;
    }
    busy_words = len;
  }

  accumulate_engine_gauges();
  if (stats != nullptr) *stats = local;
  return static_cast<int>(round64);
}

}  // namespace padlock
