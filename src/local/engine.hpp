// Gather engine: runs a per-node gather algorithm at every node and reports
// the LOCAL round complexity (max over nodes of the final view radius).
//
// A gather algorithm is any callable `void fn(LocalView& view, NodeId v)`
// that reads the graph exclusively through `view` and records its output in
// caller-owned label maps. The engine does not interpret outputs; it only
// owns round accounting.
//
// Execution is thread-pooled (support/thread_pool.hpp): nodes are
// partitioned into chunks and gathered concurrently. Each worker keeps one
// thread_local BallScratch (ball_scratch.hpp) that every node of its chunks
// borrows in turn, so after warmup a gather performs zero per-node heap
// allocation. Because `fn` may only write per-node slots of
// caller-owned maps, the parallel run is bit-identical to the serial one;
// with exec_context().threads == 1 (the default) the loop *is* the old
// serial loop. Gather callables must therefore be safe to invoke
// concurrently for distinct nodes — which every radius-bounded LOCAL rule
// is by construction (shared state would be cheating the model anyway).
//
// Batch algorithms (e.g. the deterministic sinkless-orientation solver) that
// compute all outputs with global data structures report per-node radii via
// `RoundReport` directly; tests cross-check them against a per-node gather
// run of the same rule.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "local/view.hpp"

namespace padlock {

/// Round accounting of one algorithm execution.
struct RoundReport {
  /// Per-node gather radius (== rounds spent by that node).
  NodeMap<int> node_rounds;
  /// max over nodes; 0 for the empty graph.
  int rounds = 0;

  static RoundReport from(NodeMap<int> per_node) {
    RoundReport r{std::move(per_node), 0};
    for (int x : r.node_rounds) r.rounds = std::max(r.rounds, x);
    return r;
  }

  /// Report for algorithms that account rounds globally rather than per
  /// node: every node is charged the same count.
  static RoundReport uniform(const Graph& g, int rounds) {
    return RoundReport{NodeMap<int>(g, rounds), rounds};
  }

  friend bool operator==(const RoundReport&, const RoundReport&) = default;
};

/// A per-node gather rule (see file comment for the contract).
using GatherFn = std::function<void(LocalView&, NodeId)>;

/// Runs `fn` once per node with a fresh LocalView and collects radii,
/// dispatching node chunks across the global thread pool. Views borrow the
/// calling worker's thread_local BallScratch, so repeated gathers reuse the
/// same slabs (zero per-node allocation after warmup).
RoundReport run_gather(const Graph& g, const GatherFn& fn);

/// The calling thread's gather scratch (the one run_gather's chunks borrow
/// when they execute on this thread). Exposed for tests and for workloads
/// that drive LocalViews by hand but still want the pooled scratch.
[[nodiscard]] BallScratch& gather_scratch();

/// Allocation-counting test hook: slab statistics of the calling thread's
/// gather scratch. With exec_context().threads == 1 every chunk runs on the
/// calling thread, so asserting `slab_growths` stays flat across gathers
/// proves run_gather does no per-node (or even per-run) slab allocation
/// after warmup.
struct GatherScratchStats {
  std::size_t slab_growths = 0;
  std::size_t slab_capacity = 0;
};
[[nodiscard]] GatherScratchStats gather_scratch_stats();

}  // namespace padlock
