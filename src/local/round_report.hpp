// Round accounting of one algorithm execution, the result half of every
// registered solver (core/registry.hpp AlgoResult::rounds).
//
// A T-round LOCAL algorithm is a map from each node's radius-T ball to its
// output (§2 of the paper), so a node's round count is the radius it reads.
// Algorithms that account rounds globally charge every node the same count
// (RoundReport::uniform); algorithms with per-node radii (the deterministic
// sinkless-orientation solver, the gadget verifiers, Lemma 4) report them
// node by node. Tests certify such radii against graph/subgraph.hpp's
// extract_ball: the output at v must be reproducible from v's ball alone.
#pragma once

#include <algorithm>

#include "graph/graph.hpp"
#include "graph/labels.hpp"

namespace padlock {

/// Round accounting of one algorithm execution.
struct RoundReport {
  /// Per-node radius (== rounds spent by that node).
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

}  // namespace padlock
