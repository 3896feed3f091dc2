// Run-level counters of the round executor (local/message_engine.hpp).
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
  // message slab + presence map (bytes_slab; one buffer when presence is
  // sticky, two otherwise) and the frontier/drain bitsets plus the wake-up
  // calendar (bytes_state). Both are fixed at run start — per-round cost
  // tracks these bytes, so sweeps surface them in their JSON rows. The
  // busy-word list and the calendar's merge buffer (4 B per 64 nodes each,
  // indexes over the frontier words) are not counted.
  std::int64_t bytes_slab = 0;
  std::int64_t bytes_state = 0;

  // Phase-dispatch accounting: how many send/step phases ran through the
  // thread pool vs inline. The near-empty-frontier heuristic is pinned
  // through these (tiny frontiers must never pool).
  std::int64_t pooled_phases = 0;
  std::int64_t serial_phases = 0;

  /// Surfaces the engine gauges onto an algorithm's Stats counters — the
  /// one idiom every engine-backed registration uses, so sweep JSON rows
  /// self-describe their execution (templated to keep this header free of
  /// core-layer includes).
  template <typename StatsT>
  void surface(StatsT& out) const {
    out.set("engine_bytes_slab", bytes_slab);
    out.set("engine_bytes_state", bytes_state);
  }
};

/// Process-wide, monotone engine gauge totals — the observability feed of
/// the `serve` stats op: a resident daemon counts every engine run here
/// (relaxed atomics; runs on pool workers fold in concurrently), so
/// hot-path activity is visible without restarting the process.
struct EngineGaugeTotals {
  std::atomic<std::int64_t> engine_runs{0};
};

inline EngineGaugeTotals& engine_gauge_totals() {
  static EngineGaugeTotals t;
  return t;
}

/// Counts one finished run into the process totals (called by the executor
/// on completion).
inline void accumulate_engine_gauges() {
  engine_gauge_totals().engine_runs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace padlock
