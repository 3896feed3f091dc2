// The pinned multi-pool engine backend — the executor run_message_rounds
// takes when the effective shard count is above 1, with the AVX2 step
// kernels of the step phase.
//
// Every shard of a word-aligned Partition goes to a *persistent,
// affinity-pinned* worker (support/shard_pool.hpp) that owns it for the
// whole run, and the phases are fused around ONE barrier per round:
//
//   worker w, round r:   for each owned shard s: clear(s, r-2); send(s, r)
//                        ── the one sense-reversing barrier (fold) ──
//                        for each owned shard s: step(s, r); rebuild(s)
//
// The exchange is ZERO-COPY. Pinned workers share an address space, so
// there are no mirror slots, no halo record boxes and no per-round O(cut)
// flush/deliver walks: sends write a *global* CSR-slot message slab (the
// engine-v3 layout) and steps read any shard's out-slots directly through
// Graph::peer_port(), exactly like the inline executor. Cross-round
// safety is a two-parity argument: the slab and the presence bitset are
// double-buffered by round parity, and the parity-p region is written
// only by its owning worker *before* barrier r and read by anyone *after*
// barrier r; the next write to parity p (round r+2's clear + send)
// happens only after the writer passed barrier r+1, which
// every reader of round r reached only after its steps finished. The
// barrier's release/acquire ordering is the only synchronization the data
// needs — phases themselves use no atomics except on the rare presence
// words straddling a shard boundary, where two workers' masked edge
// operations overlap and go through the bitset's shared (atomic) path.
//
// Presence bits are cleared *deferred and word-granular*: each send
// records the presence-word indices it dirtied (monotone per shard, so
// the list is at most the shard's port words), and two rounds later the
// owner zeroes exactly those words before reusing the parity. That makes
// every round O(sent words) with no dense/sparse regime split and no
// full-buffer sweeps.
//
// First touch: each worker default-constructs nothing — the slab is
// allocated raw and each worker value-fills its own shards' port ranges
// (both parities) inside the run body, after pinning, so on a NUMA
// machine the dominant allocation is resident on the socket that computes
// on it (numa_local_bytes reports how many slab bytes got that guarantee;
// an unpinned fallback team reports 0). The small bitsets (presence,
// frontier, cross mask) are zero-filled centrally.
//
// Sends iterate frontier words in node order per shard and shards in
// index order, and the slab cell written for a (sender, port) is the same
// CSR slot the inline executor writes, so pinned ≡ inline bit-identity
// holds at every shard and thread count (pinned by
// tests/shard_pool_test.cpp over the whole registry). The cross-shard
// traffic gauges count present out-slots whose reader lives in another
// shard (a "cross" bit per slot, set at init where the slot's peer port
// lies outside the owning shard's port range); halo_bytes is the payload
// bytes those readers pull across shards.
//
// SIMD step kernels (__AVX2__ builds): for uniform-send algorithms with an
// 8-byte packed wire form, a frontier word with enough active nodes steps
// through a *batched gather* — the word's whole contiguous reader-slot
// range is gathered into a dense scratch row (packed payloads via
// vpgatherqq over peer_port indices, presence bits via gathered presence
// words + variable shifts), and each node's step reads a DenseInbox view
// over its slice. The scalar PackedInbox path is the oracle: engine_simd()
// (thread-local, captured once at dispatch) forces it off, and
// bit-identity SIMD ≡ scalar is pinned by tests. Without __AVX2__ the
// kernel compiles away and simd_batches stays 0.
//
// Include discipline: this header is included by message_engine.hpp after
// the MessageTraits / kUniformSend / PackedInbox seam is defined (the
// executor reads all three); include message_engine.hpp, not this file.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "local/engine_bitset.hpp"
#include "local/message_engine_stats.hpp"
#include "support/check.hpp"
#include "support/shard_pool.hpp"
#include "support/thread_pool.hpp"

namespace padlock {

/// Thread-local SIMD switch of the pinned backend (default on). Captured
/// once on the dispatching thread — team workers never consult it — so a
/// test pinning the scalar oracle (ScopedEngineSimd) governs the whole
/// run it dispatches.
inline bool& engine_simd() {
  thread_local bool on = true;
  return on;
}

/// RAII SIMD pin for tests (mirrors ScopedEngineShards).
class ScopedEngineSimd {
 public:
  explicit ScopedEngineSimd(bool on) : saved_(engine_simd()) {
    engine_simd() = on;
  }
  ~ScopedEngineSimd() { engine_simd() = saved_; }
  ScopedEngineSimd(const ScopedEngineSimd&) = delete;
  ScopedEngineSimd& operator=(const ScopedEngineSimd&) = delete;

 private:
  bool saved_;
};

namespace detail_pinned {

/// Minimum active nodes in a 64-node frontier word before the batched
/// gather pays: the batch gathers the word's *entire* port range, so a
/// sparse word mostly gathers silence and the dense-scratch double pass
/// loses to the scalar inbox. Measured crossover on the geometric-halt
/// ramp sits near 3/4 of a word.
inline constexpr int kSimdMinActiveNodes = 48;

/// Dense inbox view of one node over the batch-gathered scratch row: the
/// node's port values are contiguous at `vals`, presence bits live at
/// [bit_base, bit_base + size) of `mask`. Same optional-like Ref protocol
/// as PackedInbox; unpack happens per access, exactly like the scalar
/// path, so messages observed are bit-identical.
template <typename Alg>
class DenseInbox {
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
    friend class DenseInbox;
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
    friend class DenseInbox;
    Iterator(const DenseInbox* inbox, int port) : inbox_(inbox), port_(port) {}
    const DenseInbox* inbox_;
    int port_;
  };

  DenseInbox(const Packed* vals, const std::uint64_t* mask,
             std::size_t bit_base, int num_ports)
      : vals_(vals), mask_(mask), bit_base_(bit_base), num_ports_(num_ports) {}

  [[nodiscard]] int size() const { return num_ports_; }
  [[nodiscard]] Ref operator[](int port) const {
    const std::size_t bit = bit_base_ + static_cast<std::size_t>(port);
    Ref r;
    if ((mask_[bit / 64] >> (bit % 64)) & 1u) {
      r.present_ = true;
      r.msg_ = Traits::unpack(vals_[static_cast<std::size_t>(port)]);
    }
    return r;
  }
  [[nodiscard]] Iterator begin() const { return Iterator(this, 0); }
  [[nodiscard]] Iterator end() const { return Iterator(this, size()); }

 private:
  const Packed* vals_;
  const std::uint64_t* mask_;
  std::size_t bit_base_ = 0;
  int num_ports_ = 0;
};

#if defined(__AVX2__)
/// Gathers `count` reader slots: out_vals[j] = slab[idx[j]] (8-byte packed
/// payloads, vpgatherqq over u32 slot indices) and bit j of out_mask =
/// presence bit of slot idx[j] (gather the presence *words*, variable-
/// shift the in-word bit down). The scalar tail handles count % 4.
inline void gather_slots_avx2(const std::uint32_t* idx, std::size_t count,
                              const std::uint64_t* slab,
                              const std::uint64_t* pres_words,
                              std::uint64_t* out_vals,
                              std::uint64_t* out_mask) {
  std::memset(out_mask, 0, ((count + 63) / 64) * sizeof(std::uint64_t));
  const __m128i c63 = _mm_set1_epi32(63);
  const __m256i one = _mm256_set1_epi64x(1);
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m128i vidx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + j));
    const __m256i vals = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(slab), vidx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_vals + j), vals);
    const __m128i widx = _mm_srli_epi32(vidx, 6);
    const __m256i pw = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(pres_words), widx, 8);
    const __m256i sh = _mm256_cvtepu32_epi64(_mm_and_si128(vidx, c63));
    const __m256i bit = _mm256_and_si256(_mm256_srlv_epi64(pw, sh), one);
    // 4 × (0|1) 64-bit lanes → 4 mask bits via the lanes' sign bits.
    const int m =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_slli_epi64(bit, 63)));
    out_mask[j / 64] |=
        static_cast<std::uint64_t>(static_cast<unsigned>(m)) << (j % 64);
  }
  for (; j < count; ++j) {
    const std::uint32_t slot = idx[j];
    out_vals[j] = slab[slot];
    if ((pres_words[slot / 64] >> (slot % 64)) & 1u) {
      out_mask[j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }
}
#endif  // __AVX2__

/// The fused zero-copy team executor (see file comment). Templated over
/// the team so the one-worker case (InlineTeam) runs the identical
/// schedule on the calling thread with fold-in-place barriers.
template <typename Alg, typename Team>
int run_rounds_with_team(const Graph& g, Alg& alg, std::int64_t max_rounds,
                         MessageEngineStats* stats, const Partition& part,
                         Team& team) {
  using Traits = MessageTraits<Alg>;
  using Packed = typename Traits::Packed;
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kWB = WordBitset::kWordBits;

  // SIMD eligibility is a compile-time property of the algorithm's wire
  // layout (uniform broadcast, 8-byte packed payload); whether eligible
  // rounds actually batch is the dispatcher-captured engine_simd() knob
  // plus the per-word density threshold.
  constexpr bool kSimdEligible = kEngineUniformSend<Alg> &&
                                 sizeof(Packed) == 8 &&
                                 std::is_trivially_copyable_v<Packed>;
  const bool simd = engine_simd();

  const std::size_t n = g.num_nodes();
  const std::size_t slots = 2 * g.num_edges();
  const int S = part.num_shards();
  const int W = team.workers();
  const bool multiw = W > 1;
  const std::uint32_t* peer = g.peer_port();

  // Global double-parity message slab: parity p of round r = r & 1 lives
  // at [p * slots, (p + 1) * slots). Allocated raw (default-init) so the
  // workers' value-fills below are the first touch of the pages.
  std::unique_ptr<Packed[]> slab(new Packed[2 * slots]);
  PresenceBuffers presence(slots);
  // Global frontier; shard word ranges are disjoint (word-aligned node
  // boundaries), so each word has exactly one writing worker.
  WordBitset active(n);
  WordBitset drain(n);
  // One bit per out-slot whose reader lives in another shard (built from
  // peer_port at init; drives the traffic gauges). Read-only after init.
  WordBitset cross(slots);

  // Per-shard state: the deferred-clear dirty-word lists (one per slab
  // parity) and the SIMD gather scratch. Small; the heavy state is the
  // global slab above.
  struct ShardState {
    std::vector<std::uint32_t> dirty[2];  // presence-word indices to clear
    std::vector<Packed> gather;           // SIMD scratch (eligible runs)
    std::vector<std::uint64_t> gmask;     // presence bits of gathered row
  };
  std::vector<ShardState> shard(static_cast<std::size_t>(S));

  // Per-worker fold inputs and counters; cache-line-separated, each slot
  // written by its worker only and read by the fold under the barrier.
  struct alignas(64) WorkerSlot {
    std::size_t active = 0;
    std::size_t drain = 0;
    std::int64_t msgs = 0;
    std::int64_t bytes = 0;
    std::int64_t simd_batches = 0;
    std::int64_t barrier_ns = 0;
  };
  std::vector<WorkerSlot> slot(static_cast<std::size_t>(W));

  // Fold-owned shared state: written only by the fold (exclusively, under
  // the barrier) or before the run; read by workers after the barrier.
  struct Shared {
    std::size_t g_active = 0;
    std::size_t g_drain = 0;
    bool terminate = false;
    std::int64_t round = 0;  // rounds executed (== the round in flight)
    MessageEngineStats stats;
    std::atomic<bool> aborted{false};
    std::mutex fault_mu;
    std::exception_ptr fault;
  } sh;

  const auto record_fault = [&sh]() {
    std::lock_guard<std::mutex> lock(sh.fault_mu);
    if (!sh.fault) sh.fault = std::current_exception();
    sh.aborted.store(true, std::memory_order_release);
  };

  // Worker w owns the contiguous shard block [lo(w), lo(w+1)).
  const auto shard_lo = [S, W](int w) {
    return static_cast<int>((static_cast<std::int64_t>(w) * S) / W);
  };

  // No-op fold for the one init barrier (below): pure synchronization.
  const std::function<void()> no_fold = [] {};

  // The per-round fold: sum the frontier counts the workers rebuilt,
  // decide termination / budget, account the round.
  const std::function<void()> fold = [&] {
    std::size_t a = 0;
    std::size_t d = 0;
    for (int w = 0; w < W; ++w) {
      a += slot[static_cast<std::size_t>(w)].active;
      d += slot[static_cast<std::size_t>(w)].drain;
    }
    sh.g_active = a;
    sh.g_drain = d;
    if (sh.aborted.load(std::memory_order_acquire) || a == 0) {
      sh.terminate = true;
      return;
    }
    try {
      PADLOCK_REQUIRE(sh.round < max_rounds);
      PADLOCK_REQUIRE(sh.round < std::numeric_limits<int>::max());
    } catch (...) {
      std::lock_guard<std::mutex> lock(sh.fault_mu);
      if (!sh.fault) sh.fault = std::current_exception();
      sh.terminate = true;
      return;
    }
    ++sh.round;
    sh.stats.rounds = sh.round;
    sh.stats.node_steps += static_cast<std::int64_t>(a);
    sh.stats.node_sends += static_cast<std::int64_t>(a + d);
    if (a > sh.stats.peak_active) sh.stats.peak_active = a;
  };

  const std::function<void(int)> body = [&](int w) {
    const int s_lo = shard_lo(w);
    const int s_hi = shard_lo(w + 1);
    WorkerSlot& my = slot[static_cast<std::size_t>(w)];

    // ---- Init: first-touch the owned shards' slab ranges (both
    // parities), build the cross mask and the initial frontier.
    if (!sh.aborted.load(std::memory_order_acquire)) {
      try {
        std::size_t a_cnt = 0;
        for (int s = s_lo; s < s_hi; ++s) {
          ShardState& st = shard[static_cast<std::size_t>(s)];
          const Partition::Shard& ps = part.shard(s);
          const std::size_t span = ps.port_end - ps.port_base;
          std::fill_n(slab.get() + ps.port_base, span, Packed{});
          std::fill_n(slab.get() + slots + ps.port_base, span, Packed{});
          // Cross-reader bits. A presence/cross word straddling a shard
          // boundary has a second writing worker; its masked ops go
          // through the shared (atomic) path.
          const std::size_t w_lo = ps.port_base / kWB;
          const std::size_t w_hi =
              ps.port_end == ps.port_base ? w_lo : (ps.port_end - 1) / kWB;
          for (std::size_t i = ps.port_base; i < ps.port_end; ++i) {
            if (peer[i] >= ps.port_base && peer[i] < ps.port_end) continue;
            const std::size_t wi = i / kWB;
            const bool edge = (wi == w_lo && ps.port_base % kWB != 0) ||
                              (wi == w_hi && ps.port_end % kWB != 0);
            cross.or_word(wi, std::uint64_t{1} << (i % kWB), multiw && edge);
          }
          st.dirty[0].reserve(64);
          st.dirty[1].reserve(64);
          for (NodeId v = ps.node_begin; v < ps.node_end; ++v) {
            if (!alg.done(v)) {
              active.set(static_cast<std::size_t>(v));
              ++a_cnt;
            }
          }
          if constexpr (kSimdEligible) {
            if (simd) {
              // Exact batch-row bound: the widest port range any one
              // frontier word of this shard spans.
              std::size_t max_row = 0;
              const std::size_t words = ps.word_end - ps.word_begin;
              for (std::size_t lw = 0; lw < words; ++lw) {
                const NodeId b =
                    ps.node_begin + static_cast<NodeId>(lw * kWB);
                const NodeId e =
                    std::min<NodeId>(b + static_cast<NodeId>(kWB),
                                     ps.node_end);
                const std::size_t row_b = g.port_offset(b);
                const std::size_t row_e =
                    e >= ps.node_end ? ps.port_end : g.port_offset(e);
                max_row = std::max(max_row, row_e - row_b);
              }
              st.gather.resize(max_row);
              st.gmask.assign((max_row + 63) / 64 + 1, 0);
            }
          }
        }
        my.active = a_cnt;
        my.drain = 0;
      } catch (...) {
        record_fault();
      }
    }
    // Init ends at a barrier: the cross mask gains cross-worker readers
    // from the very first send, and a shard-boundary word of it may have
    // two initializing writers. Once per run, not per round.
    team.barrier(no_fold);

    // ---- Round loop. Local r tracks the round in flight; it equals
    // sh.round whenever the fold let the round proceed.
    for (std::int64_t r64 = 1;; ++r64) {
      const int round = static_cast<int>(
          std::min<std::int64_t>(r64, std::numeric_limits<int>::max()));
      const int parity = round & 1;

      // Pre-barrier: reclaim this parity (clear round r-2's presence
      // words, recorded then) and send round r, fused per owned shard.
      if (!sh.aborted.load(std::memory_order_acquire)) {
        try {
          WordBitset& pres = presence.buffer(round);
          Packed* sslab =
              slab.get() + static_cast<std::size_t>(parity) * slots;
          for (int s = s_lo; s < s_hi; ++s) {
            ShardState& st = shard[static_cast<std::size_t>(s)];
            const Partition::Shard& ps = part.shard(s);
            const std::size_t w_lo = ps.port_base / kWB;
            const std::size_t w_hi =
                ps.port_end == ps.port_base ? w_lo : (ps.port_end - 1) / kWB;
            const bool lo_edge = ps.port_base % kWB != 0;
            const bool hi_edge = ps.port_end % kWB != 0;

            std::vector<std::uint32_t>& dl = st.dirty[parity];
            for (const std::uint32_t dw : dl) {
              if ((dw == w_lo && lo_edge) || (dw == w_hi && hi_edge)) {
                const std::size_t b =
                    std::max<std::size_t>(ps.port_base, std::size_t{dw} * kWB);
                const std::size_t e = std::min<std::size_t>(
                    ps.port_end, std::size_t{dw} * kWB + kWB);
                pres.reset_range(b, e, multiw);
              } else {
                pres.words()[dw] = 0;
              }
            }
            dl.clear();

            std::int64_t last_dirty = -1;
            for (std::size_t lw = ps.word_begin; lw < ps.word_end; ++lw) {
              std::uint64_t bits = active.word(lw) | drain.word(lw);
              if (bits == 0) continue;
              const std::size_t base = lw * kWB;
              while (bits != 0) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                const NodeId v =
                    static_cast<NodeId>(base + static_cast<std::size_t>(b));
                const auto [o, d] = g.port_span(v);
                if (d == 0) continue;
                // Masked presence ops need the atomic path only when the
                // sender's range touches a straddling boundary word.
                const bool sh_edge =
                    multiw && ((o / kWB == w_lo && lo_edge) ||
                               ((o + d - 1) / kWB == w_hi && hi_edge));
                bool sent_any = false;
                if constexpr (kEngineUniformSend<Alg>) {
                  if (auto m = alg.send(v, 0, round)) {
                    const Packed pm = Traits::pack(*m);
                    Packed* out = sslab + o;
                    for (std::size_t p = 0; p < d; ++p) out[p] = pm;
                    pres.set_range(o, o + d, sh_edge);
                    sent_any = true;
                    // Cross-traffic gauge: cross bits inside [o, o + d).
                    for (std::size_t cw = o / kWB; cw <= (o + d - 1) / kWB;
                         ++cw) {
                      std::uint64_t cm = cross.word(cw);
                      if (cw == o / kWB) cm &= ~std::uint64_t{0} << (o % kWB);
                      if (cw == (o + d - 1) / kWB && (o + d) % kWB != 0) {
                        cm &= (std::uint64_t{1} << ((o + d) % kWB)) - 1;
                      }
                      const int c = std::popcount(cm);
                      my.msgs += c;
                      my.bytes += static_cast<std::int64_t>(c * sizeof(Packed));
                    }
                  }
                } else {
                  std::size_t wi = o / kWB;
                  std::uint64_t mask = 0;
                  for (std::size_t p = 0; p < d; ++p) {
                    const std::size_t pslot = o + p;
                    const std::size_t sw2 = pslot / kWB;
                    if (sw2 != wi) {
                      if (mask != 0) pres.or_word(wi, mask, sh_edge);
                      wi = sw2;
                      mask = 0;
                    }
                    if (auto m = alg.send(v, static_cast<int>(p), round)) {
                      sslab[pslot] = Traits::pack(*m);
                      mask |= std::uint64_t{1} << (pslot % kWB);
                      if (cross.test(pslot)) {
                        ++my.msgs;
                        my.bytes += static_cast<std::int64_t>(sizeof(Packed));
                      }
                      sent_any = true;
                    }
                  }
                  if (mask != 0) pres.or_word(wi, mask, sh_edge);
                }
                if (sent_any) {
                  // Record the dirtied presence words (monotone: nodes
                  // ascend, so ranges never revisit an earlier word).
                  const std::size_t dw_lo = o / kWB;
                  const std::size_t dw_hi = (o + d - 1) / kWB;
                  for (std::size_t dw = std::max<std::size_t>(
                           dw_lo, static_cast<std::size_t>(last_dirty + 1));
                       dw <= dw_hi; ++dw) {
                    dl.push_back(static_cast<std::uint32_t>(dw));
                  }
                  last_dirty = static_cast<std::int64_t>(dw_hi);
                }
              }
            }
          }
        } catch (...) {
          record_fault();
        }
      }

      const Clock::time_point t0 = Clock::now();
      team.barrier(fold);
      my.barrier_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - t0)
                           .count();
      if (sh.terminate) break;

      if (sh.aborted.load(std::memory_order_acquire)) continue;
      try {
        const WordBitset& pres = presence.buffer(round);
        const Packed* sslab =
            slab.get() + static_cast<std::size_t>(parity) * slots;
        std::size_t a_cnt = 0;
        std::size_t d_cnt = 0;
        for (int s = s_lo; s < s_hi; ++s) {
          ShardState& st = shard[static_cast<std::size_t>(s)];
          const Partition::Shard& ps = part.shard(s);

          // Step, batched (SIMD) or per node (scalar oracle); inboxes
          // read any shard's out-slots directly through peer_port.
          for (std::size_t lw = ps.word_begin; lw < ps.word_end; ++lw) {
            std::uint64_t bits = active.word(lw);
            if (bits == 0) continue;
            const std::size_t base = lw * kWB;
#if defined(__AVX2__)
            if constexpr (kSimdEligible) {
              if (simd && std::popcount(bits) >= kSimdMinActiveNodes) {
                const NodeId v0 = static_cast<NodeId>(base);
                const NodeId vend = std::min<NodeId>(
                    static_cast<NodeId>(base + kWB), ps.node_end);
                const std::size_t o0 = g.port_offset(v0);
                const std::size_t oE =
                    vend >= ps.node_end ? ps.port_end : g.port_offset(vend);
                gather_slots_avx2(
                    peer + o0, oE - o0,
                    reinterpret_cast<const std::uint64_t*>(sslab),
                    pres.words(),
                    reinterpret_cast<std::uint64_t*>(st.gather.data()),
                    st.gmask.data());
                ++my.simd_batches;
                while (bits != 0) {
                  const int b = std::countr_zero(bits);
                  bits &= bits - 1;
                  const NodeId v =
                      static_cast<NodeId>(base + static_cast<std::size_t>(b));
                  const auto [o, d] = g.port_span(v);
                  const DenseInbox<Alg> inbox(st.gather.data() + (o - o0),
                                              st.gmask.data(), o - o0,
                                              static_cast<int>(d));
                  alg.step(v, inbox, round);
                }
                continue;
              }
            }
#endif  // __AVX2__
            while (bits != 0) {
              const int b = std::countr_zero(bits);
              bits &= bits - 1;
              const NodeId v =
                  static_cast<NodeId>(base + static_cast<std::size_t>(b));
              const auto [o, d] = g.port_span(v);
              const PackedInbox<Alg> inbox(peer + o, static_cast<int>(d),
                                           sslab, pres.words());
              alg.step(v, inbox, round);
            }
          }

          // Frontier rebuild (word order = node order, deterministic),
          // with the fold inputs accumulated inline.
          for (std::size_t lw = ps.word_begin; lw < ps.word_end; ++lw) {
            const std::uint64_t a = active.word(lw);
            if (a == 0 && drain.word(lw) == 0) continue;
            std::uint64_t keep = 0;
            std::uint64_t halted = 0;
            std::uint64_t bits = a;
            const std::size_t base = lw * kWB;
            while (bits != 0) {
              const int b = std::countr_zero(bits);
              const std::uint64_t mask = bits & (~bits + 1);
              bits &= bits - 1;
              const NodeId v =
                  static_cast<NodeId>(base + static_cast<std::size_t>(b));
              if (alg.done(v)) {
                halted |= mask;
              } else {
                keep |= mask;
              }
            }
            active.word(lw) = keep;
            drain.word(lw) = halted;
            a_cnt += static_cast<std::size_t>(std::popcount(keep));
            d_cnt += static_cast<std::size_t>(std::popcount(halted));
          }
        }
        my.active = a_cnt;
        my.drain = d_cnt;
      } catch (...) {
        record_fault();
      }
    }
  };

  team.run(body);

  if (sh.fault) std::rethrow_exception(sh.fault);

  MessageEngineStats local = sh.stats;
  local.shards = S;
  local.pinned_teams = team.pinned();
  for (int w = 0; w < W; ++w) {
    const WorkerSlot& ws = slot[static_cast<std::size_t>(w)];
    local.cross_shard_msgs += ws.msgs;
    local.halo_bytes += ws.bytes;
    local.simd_batches += ws.simd_batches;
    local.barrier_ns += ws.barrier_ns;
  }
  const std::size_t pres_words = (slots + kWB - 1) / kWB;
  local.bytes_slab = static_cast<std::int64_t>(
      2 * slots * sizeof(Packed) + 2 * pres_words * sizeof(std::uint64_t));
  // numa_local_bytes: slab bytes whose first touch ran on a pinned
  // worker. Owner of shard s is the worker whose block contains s.
  for (int w = 0; w < W; ++w) {
    if (!team.worker_pinned(w)) continue;
    const int lo = shard_lo(w);
    const int hi = shard_lo(w + 1);
    for (int s = lo; s < hi; ++s) {
      const Partition::Shard& ps = part.shard(s);
      local.numa_local_bytes += static_cast<std::int64_t>(
          2 * (ps.port_end - ps.port_base) * sizeof(Packed));
    }
  }
  local.bytes_state = static_cast<std::int64_t>(
                          (active.num_words() + drain.num_words() +
                           cross.num_words()) *
                          sizeof(std::uint64_t)) +
                      part.bytes();

  accumulate_engine_gauges(local);
  if (stats != nullptr) *stats = local;
  return static_cast<int>(sh.round);
}

}  // namespace detail_pinned

/// Dispatcher of the pinned backend: sizes the team to
/// min(shards, resolved_threads()) — the one-worker case runs the fused
/// schedule inline on the calling thread (InlineTeam; no threads, no
/// barrier traffic), the multi-worker case borrows a cached persistent
/// ShardTeam (pinned when the topology allows, unpinned fallback
/// otherwise; see support/shard_pool.hpp).
template <typename Alg>
int run_message_rounds_pinned(const Graph& g, Alg& alg,
                              std::int64_t max_rounds,
                              MessageEngineStats* stats,
                              const Partition& part) {
  const int W = std::min(part.num_shards(), resolved_threads());
  if (W <= 1) {
    InlineTeam team;
    return detail_pinned::run_rounds_with_team(g, alg, max_rounds, stats,
                                               part, team);
  }
  const std::shared_ptr<ShardTeam> team = shard_team_for(W);
  return detail_pinned::run_rounds_with_team(g, alg, max_rounds, stats, part,
                                             *team);
}

}  // namespace padlock
