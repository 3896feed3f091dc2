// Run-level counters shared by both round executors (inline v3 and pinned
// — see local/message_engine.hpp).
#pragma once

#include <atomic>
#include <cstdint>

namespace padlock {

/// Counters of one run_message_rounds execution (queried by tests and
/// benches; pass nullptr to skip).
struct MessageEngineStats {
  std::int64_t rounds = 0;
  std::int64_t node_steps = 0;   // total step() invocations = Σ_r |active_r|
  std::int64_t node_sends = 0;   // total send-phase node visits (incl. drain)
  std::size_t peak_active = 0;   // |frontier| of the busiest round

  // Resident engine footprint, the layout-win gauge of engine v3: the
  // message slab + presence map (bytes_slab) and the frontier/drain
  // bookkeeping (bytes_state). Both are fixed at run start — per-round
  // cost tracks these bytes, so sweeps surface them in their JSON rows.
  std::int64_t bytes_slab = 0;
  std::int64_t bytes_state = 0;

  // Phase-dispatch accounting (filled by inline v3 only): how many send/step
  // phases ran through the thread pool vs inline. The near-empty-frontier
  // heuristic is pinned through these (tiny frontiers must never pool).
  std::int64_t pooled_phases = 0;
  std::int64_t serial_phases = 0;

  // Shard accounting: the shard count the run executed with (1 = the
  // inline path), and the cumulative cross-shard traffic — present
  // out-slots read by a node of another shard, and their packed payload
  // bytes. Zero whenever shards == 1.
  std::int64_t shards = 1;
  std::int64_t cross_shard_msgs = 0;
  std::int64_t halo_bytes = 0;

  // Pinned-backend accounting (local/engine_pinned.hpp; zero on the
  // inline route). pinned_teams = workers that ran affinity-pinned to their
  // own CPU (0 = unpinned fallback or the one-worker inline team).
  // barrier_ns = cumulative wall time workers spent waiting at the round
  // barrier, summed across workers — the coordination overhead the fused
  // schedule is buying down. numa_local_bytes = shard state (slab +
  // presence words) first-touched by a *pinned* owner, i.e. the bytes with
  // a placement guarantee; 0 when the team ran unpinned. simd_batches =
  // word-batched step gathers executed by the vectorized kernel (stays 0
  // without __AVX2__, when engine_simd() is off, or when the frontier was
  // too sparse to batch).
  std::int64_t pinned_teams = 0;
  std::int64_t barrier_ns = 0;
  std::int64_t numa_local_bytes = 0;
  std::int64_t simd_batches = 0;

  /// Surfaces the engine gauges onto an algorithm's Stats counters — the
  /// one idiom every engine-backed registration uses, so sweep JSON rows
  /// self-describe their execution (templated to keep this header free of
  /// core-layer includes).
  template <typename StatsT>
  void surface(StatsT& out) const {
    out.set("engine_bytes_slab", bytes_slab);
    out.set("engine_bytes_state", bytes_state);
    out.set("engine_shards", shards);
    out.set("cross_shard_msgs", cross_shard_msgs);
    out.set("halo_bytes", halo_bytes);
    out.set("pinned_teams", pinned_teams);
    out.set("barrier_ns", barrier_ns);
    out.set("numa_local_bytes", numa_local_bytes);
  }
};

/// Process-wide, monotone engine gauge totals — the observability feed of
/// the `serve` stats op: a resident daemon accumulates every engine run's
/// substrate traffic here (relaxed atomics; runs on pool workers fold in
/// concurrently), so hot-path behavior is visible without restarting the
/// process. engine_shards / pinned_teams are "most recent run" gauges, the
/// rest are cumulative counters.
struct EngineGaugeTotals {
  std::atomic<std::int64_t> engine_runs{0};
  std::atomic<std::int64_t> engine_shards{1};    // last run
  std::atomic<std::int64_t> cross_shard_msgs{0};
  std::atomic<std::int64_t> halo_bytes{0};
  std::atomic<std::int64_t> pinned_teams{0};     // last run
  std::atomic<std::int64_t> barrier_ns{0};
  std::atomic<std::int64_t> numa_local_bytes{0};
};

inline EngineGaugeTotals& engine_gauge_totals() {
  static EngineGaugeTotals t;
  return t;
}

/// Folds one finished run into the process totals (called by every v3-family
/// executor route on completion).
inline void accumulate_engine_gauges(const MessageEngineStats& s) {
  EngineGaugeTotals& t = engine_gauge_totals();
  t.engine_runs.fetch_add(1, std::memory_order_relaxed);
  t.engine_shards.store(s.shards, std::memory_order_relaxed);
  t.cross_shard_msgs.fetch_add(s.cross_shard_msgs, std::memory_order_relaxed);
  t.halo_bytes.fetch_add(s.halo_bytes, std::memory_order_relaxed);
  t.pinned_teams.store(s.pinned_teams, std::memory_order_relaxed);
  t.barrier_ns.fetch_add(s.barrier_ns, std::memory_order_relaxed);
  t.numa_local_bytes.fetch_add(s.numa_local_bytes, std::memory_order_relaxed);
}

}  // namespace padlock
