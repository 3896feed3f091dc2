// Persistent per-shard worker teams — the execution substrate of the
// pinned engine backend (local/engine_pinned.hpp), taken when shards > 1.
//
// The global ThreadPool (support/thread_pool.hpp) is a shared task queue:
// every phase of every round pays one dispatch + join through one mutex,
// and whichever worker happens to grab a chunk touches that shard's slab —
// fine for batched sweeps, wrong for a NUMA-shaped engine where each shard
// slab should be written by exactly one thread that stays put. A ShardTeam
// is the opposite design point:
//
//  * N workers spawned once and kept for the process lifetime (teams are
//    cached per size, like the global pool), each owning a fixed block of
//    shards for a whole run.
//  * Affinity pinning: when the team fits the CPUs this process is allowed
//    to run on (sched_getaffinity), each worker is pinned to a distinct
//    allowed CPU via pthread_setaffinity_np, so first-touch pages (slabs,
//    presence words, frontier words — initialized by the owning worker)
//    stay local to the socket that computes on them. When the team does
//    not fit (cpuset/taskset-restricted CI, more workers than CPUs) or the
//    platform has no affinity API, the team degrades to *unpinned* workers
//    with identical semantics — pinning is a placement hint, never a
//    correctness dependency (pinned() reports what actually stuck).
//  * Run dispatch is a generation handshake (C++20 atomic wait/notify),
//    not a task queue: run(body) wakes every worker, each executes
//    body(worker), and run returns when all have. Concurrent run() callers
//    serialize on an internal mutex.
//  * barrier(fold): one sense-reversing (generation-counting) barrier for
//    use *inside* a body — the single per-round synchronization point of
//    the pinned engine. The last arriver runs `fold` exclusively before
//    releasing the others, which is where the engine folds per-worker
//    frontier counts and decides termination. Waiters spin briefly
//    (dedicated-CPU case) then fall back to futex-style atomic waits; an
//    oversubscribed team (more workers than allowed CPUs) skips the spin.
//
// Exception contract: a body running under a team that uses barriers must
// not let exceptions escape between barriers — a worker that stops
// arriving deadlocks the others. The pinned engine wraps every phase in
// try/catch and coordinates shutdown through its fold; ShardTeam::run
// additionally records any exception that does escape a body and rethrows
// the first one after all workers finished (the backstop for bodies
// without barriers).
//
// InlineTeam is the degenerate single-worker team: run() calls body(0) on
// the calling thread and barrier() runs the fold in place. The pinned
// engine templates over the team type so the one-worker case (shards or
// threads resolve to 1) executes the same fused round schedule with zero
// thread traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace padlock {

/// The CPUs this process may run on: `online` is their count (>= 1 even
/// when discovery fails), `cpus` their ids in ascending order (empty when
/// the platform exposes no affinity mask — treat as "unknown topology").
struct CpuTopology {
  int online = 1;
  std::vector<int> cpus;
};

/// Queries sched_getaffinity (Linux); portable fallback is
/// hardware_concurrency with an empty cpu list.
[[nodiscard]] CpuTopology cpu_topology();

class ShardTeam {
 public:
  /// Spawns `workers` (>= 1) persistent threads and pins each to a
  /// distinct allowed CPU when the team fits the topology (see file
  /// comment); otherwise leaves them unpinned.
  explicit ShardTeam(int workers);
  ~ShardTeam();

  ShardTeam(const ShardTeam&) = delete;
  ShardTeam& operator=(const ShardTeam&) = delete;

  [[nodiscard]] int workers() const;
  /// Workers successfully affinity-pinned; 0 = unpinned fallback.
  [[nodiscard]] int pinned() const;
  /// Whether worker w (0-based) was pinned to its own CPU.
  [[nodiscard]] bool worker_pinned(int w) const;

  /// Executes body(w) on every worker w concurrently; returns when all
  /// have finished. Serializes concurrent callers. Rethrows the first
  /// exception that escaped a body (see the contract in the file comment).
  void run(const std::function<void(int)>& body);

  /// Sense-reversing barrier for use inside a run() body: blocks until all
  /// workers arrive; the last arriver runs `fold` (when non-null)
  /// exclusively before releasing the team. All writes made before any
  /// worker's arrival happen-before the fold, and the fold's writes
  /// happen-before every worker's return.
  void barrier(const std::function<void()>& fold);
  void barrier() { barrier(nullptr); }

 private:
  struct Impl;
  void worker_loop(int w);
  std::unique_ptr<Impl> impl_;
};

/// Process-wide team cache keyed by worker count (small FIFO, like the
/// partition memo): repeated pinned runs at the same width reuse warm,
/// already-pinned threads. Shared ownership keeps a team alive for callers
/// that hold it across an eviction.
[[nodiscard]] std::shared_ptr<ShardTeam> shard_team_for(int workers);

/// The one-worker team: body runs on the calling thread, barriers fold in
/// place. Same interface shape as ShardTeam so the pinned engine can
/// template over either.
struct InlineTeam {
  [[nodiscard]] int workers() const { return 1; }
  [[nodiscard]] int pinned() const { return 0; }
  [[nodiscard]] bool worker_pinned(int) const { return false; }
  void run(const std::function<void(int)>& body) { body(0); }
  void barrier(const std::function<void()>& fold) {
    if (fold) fold();
  }
  void barrier() {}
};

}  // namespace padlock
