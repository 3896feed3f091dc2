// Whole-graph structural queries used by tests, workload generators and the
// round-accounting engines: BFS distances, components, diameter, girth.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/labels.hpp"

namespace padlock {

inline constexpr int kUnreachable = -1;

/// BFS distances from `source` (kUnreachable where disconnected).
NodeMap<int> bfs_distances(const Graph& g, NodeId source);

/// BFS distances from a set of sources (distance to the nearest source).
NodeMap<int> bfs_distances(const Graph& g, const std::vector<NodeId>& sources);

/// Connected component id per node (ids are dense, 0-based) and the count.
struct Components {
  NodeMap<int> id;
  int count = 0;
};
Components connected_components(const Graph& g);

/// Exact eccentricity of `source` within its component.
int eccentricity(const Graph& g, NodeId source);

/// Exact diameter (max eccentricity over all nodes; kUnreachable for the
/// empty graph). O(n·m) — intended for test-sized graphs.
int diameter(const Graph& g);

/// Girth: length of the shortest cycle. Self-loops count as length-1 cycles
/// and parallel edges as length-2 cycles. std::nullopt if acyclic (forest).
std::optional<int> girth(const Graph& g);

/// Length of the shortest cycle through edges incident to `v`, i.e. the
/// girth of the ball around v; nullopt if v's component is acyclic.
std::optional<int> shortest_cycle_through(const Graph& g, NodeId v);

/// Bridges of a multigraph: true for every edge on no cycle. Self-loops and
/// parallel edges are never bridges. O(n + m).
EdgeMap<bool> find_bridges(const Graph& g);

/// Distance from every node to the nearest node that lies on a cycle or has
/// degree != `regular_degree` (the "escape targets" of the deterministic
/// sinkless-orientation algorithm). kUnreachable if none exists.
NodeMap<int> distance_to_cycle_or_irregular(const Graph& g, int regular_degree);

}  // namespace padlock
