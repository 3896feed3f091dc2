// Randomized (O(log n), O(log n)) network decomposition, Linial–Saks style.
//
// The paper's Discussion connects the open D(n)/R(n) gap to the complexity
// of computing (log n, log n)-network decompositions deterministically;
// bench E9 measures this randomized baseline (its rand-LS rows), and bench
// E4 prints the D/R of the Π_i hierarchy it is compared against.
//
// Per phase, every live node draws a radius r_v ~ min(Geom(1/2), B) with
// B = O(log n) and broadcasts a claim over its radius-r_v ball; a live node
// u elects the largest-id claimant v* reaching it and joins v*'s cluster iff
// it lies strictly inside the claimed ball (d(u,v*) < r_{v*}); border nodes
// stay live for the next phase. Same-phase clusters are never adjacent
// (an adjacent node of a joined node is reached by the same claimant, so a
// larger-id claimant would have been elected), clusters have radius <= B,
// and each phase retires a constant fraction of live nodes in expectation,
// so O(log n) phases (= colors) suffice w.h.p.
#pragma once

#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "local/ids.hpp"

namespace padlock {

struct Decomposition {
  NodeMap<int> color;       // phase number the node retired in, 1-based
  NodeMap<NodeId> cluster;  // cluster center (a node id)
  int num_colors = 0;
  int max_cluster_radius = 0;
  int rounds = 0;
};

Decomposition network_decomposition(const Graph& g, const IdMap& ids,
                                    std::uint64_t seed);

/// Radius of a cluster around `center`: the largest BFS distance in g from
/// `center` to a member. Members unreachable from `center` are skipped, and
/// the center need not be a member itself (a center may retire into another
/// cluster). The BFS runs on flat per-thread scratch and stops as soon as the
/// last member is reached, so it costs the ball of that radius around the
/// center, not the whole component.
int cluster_radius(const Graph& g, NodeId center,
                   std::span<const NodeId> members);

/// True iff same-color clusters are pairwise non-adjacent and every cluster
/// has weak diameter (here: radius around its center) <= max_radius.
bool decomposition_valid(const Graph& g, const Decomposition& d,
                         int max_radius);

}  // namespace padlock
