// Thread-pooled execution substrate for the batched runner stack.
//
// padlock's parallelism is deliberately simple: per-node gather algorithms
// and per-site constraint checks are embarrassingly parallel (every worker
// reads the immutable Graph and writes disjoint slots of caller-owned label
// stores), and batched sweeps parallelize across independent runs. A plain
// shared-queue pool with static range chunking covers all of it — no work
// stealing, no futures — while keeping results bit-identical to the serial
// path: chunks partition the index range deterministically and anything
// order-sensitive (violation lists, sweep rows) is merged in chunk order.
//
// The process-wide ExecContext carries the one knob every layer consults:
//
//   exec_context().threads  worker count (0 = hardware concurrency,
//                           1 = serial, the default)
//
// Results are bit-identical to a serial run at every thread count.
//
// Mutate exec_context() only from the coordinating thread between batch
// operations (the CLI/bench flag-parsing moment); the global pool is
// re-sized lazily on the next parallel_for. The resize is in-flight-safe:
// each dispatch holds a reference on the pool it runs on, and a resize
// requested while any dispatch is live is deferred (current size served)
// until the pool is quiescent — a serve daemon changing threads between
// requests can never destroy a pool another executor is mid-for_range on.
//
// Nesting is safe by construction: a parallel_for issued from inside a pool
// worker runs inline on that worker (so an outer batch of runs can freely
// call the parallel checker without deadlocking the pool).
//
// Worker-lifetime scratch: layers that need warm per-thread buffers (the
// gather engine's thread_local BallScratch, local/ball_scratch.hpp) key
// them on the worker thread via `thread_local`. Workers persist across
// parallel_for calls, so such scratch stays warm for a whole sweep; when
// exec_context().threads changes the pool is rebuilt, the old workers exit,
// and their thread_local scratch is reclaimed by the usual thread-exit
// destructors — no registry of scratches to invalidate.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace padlock {

/// Process-wide execution knobs (see file comment).
struct ExecContext {
  int threads = 1;  // 0 = hardware concurrency
};

/// The mutable global context consulted by run_gather, check_ne_lcl and
/// run_batch.
[[nodiscard]] ExecContext& exec_context();

/// Applies the conventional `--threads N` flag (shared by the benches) to
/// exec_context().threads; a missing or valueless flag leaves `fallback`
/// (0 = hardware concurrency). N is parsed strictly (support/parse.hpp):
/// a malformed or out-of-range value prints a usage error and exits 2,
/// never silently becomes 0.
void set_threads_from_args(int argc, char** argv, int fallback = 0);

/// exec_context().threads with 0 resolved to the hardware concurrency
/// (and that resolved to >= 1).
[[nodiscard]] int resolved_threads();

/// Fixed-size shared-queue thread pool (no work stealing; see file comment
/// for why that is enough here).
class ThreadPool {
 public:
  /// Spawns `threads` workers; threads <= 1 spawns none (for_range then
  /// runs serially inline).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Chunk callback: processes the half-open index range [begin, end).
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  /// Splits [begin, end) into chunks of ~`grain` indices (grain == 0 picks
  /// range / (4 * workers), at least 1), runs them across the workers, and
  /// blocks until all complete. The first exception thrown by any chunk is
  /// rethrown here after the whole range has settled. Runs inline when the
  /// pool has no workers, the range fits one grain, or the caller already
  /// is a pool worker (nested use).
  void for_range(std::size_t begin, std::size_t end, std::size_t grain,
                 const RangeFn& fn);

  /// One captured per-chunk failure from for_range_capture: the index range
  /// the chunk owned and the described exception that escaped it.
  struct ChunkFault {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::string error;  // describe_current_exception() format
  };

  /// Fault-capturing variant of for_range: every chunk that throws is
  /// recorded instead of killing the batch, so one poisoned chunk cannot
  /// destroy the work of the others. The whole range still settles; the
  /// returned faults are sorted by chunk begin (empty = clean run). The
  /// serial/nested inline path iterates chunk by chunk so it captures at
  /// the same granularity as the pooled path.
  [[nodiscard]] std::vector<ChunkFault> for_range_capture(std::size_t begin,
                                                          std::size_t end,
                                                          std::size_t grain,
                                                          const RangeFn& fn);

  /// True iff the calling thread is a worker of any ThreadPool.
  [[nodiscard]] static bool on_worker_thread();

 private:
  void worker_loop();

  /// Shared dispatch behind for_range / for_range_capture: resolves the
  /// grain, schedules the chunks (pooled or inline), and blocks until the
  /// range settles. `chunk` must not throw — each caller wraps its own
  /// error policy around `fn`. `chunk_inline` selects whether the inline
  /// path iterates chunk by chunk (capture granularity) or runs the whole
  /// range as one block.
  void dispatch_chunks(std::size_t begin, std::size_t end, std::size_t grain,
                       bool chunk_inline, const RangeFn& chunk);

  struct Queue;  // shared task queue state (mutex/cv/deque)
  std::unique_ptr<Queue> queue_;
  std::vector<std::thread> workers_;
};

/// The lazily-built process pool, re-sized to resolved_threads() whenever
/// the configured thread count changed since the last call — unless a
/// parallel_for is in flight on it or the caller is a pool worker, in
/// which case the current pool is served and the resize retried on the
/// next quiescent call. Prefer parallel_for/parallel_for_capture, which
/// additionally keep the pool alive for the whole dispatch.
[[nodiscard]] ThreadPool& global_pool();

/// for_range through the global pool — the one parallel primitive the rest
/// of the library uses.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const ThreadPool::RangeFn& fn);

/// for_range_capture through the global pool: the fault-isolating primitive
/// behind run_batch / run_scenarios.
[[nodiscard]] std::vector<ThreadPool::ChunkFault> parallel_for_capture(
    std::size_t begin, std::size_t end, std::size_t grain,
    const ThreadPool::RangeFn& fn);

}  // namespace padlock
