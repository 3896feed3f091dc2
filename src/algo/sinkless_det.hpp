// Deterministic sinkless orientation in Θ(log n) rounds.
//
// The paper's base problem Π_1 (§5) has deterministic complexity Θ(log n)
// [Chang et al. 2016; Ghaffari–Su 2017]. This module implements a concrete
// O(log n)-round deterministic algorithm as a *per-edge decision rule*: both
// endpoints of an edge evaluate the same function of their O(log n)-radius
// views and therefore agree on the orientation without negotiation.
//
// The rule. Let L(n) = 2⌈log2 n⌉ + 2 ("short" cycle length budget; by the
// Moore bound every ball of radius ⌈log2 n⌉ + 1 in a min-degree-3 region
// contains a short cycle). Define
//
//   T  = { v : some simple cycle of length <= L passes through v },
//   T2 = T ∪ { v : deg(v) <= 2 }.
//
// Every node claims at most one incident edge as its out-edge out(v):
//
//   * deg(v) <= 2 — no claim (such nodes may be sinks);
//   * v ∈ T — out(v) is v's successor edge on C(v), the canonical minimum
//     short cycle through v (ordered by (length, canonical id/port
//     sequence)); the traversal direction is the canonical direction of
//     C(v), a property of the cycle alone. Key lemma: two claims can never
//     collide on an edge, because a collision would force C(u) and C(v) to
//     pass through each other's node, whence C(u) = C(v) by minimality and
//     the successor edges are distinct by the shared canonical direction.
//   * v ∉ T2, deg(v) >= 3 — out(v) is the first edge of the canonical
//     shortest path toward T2 (distance strictly decreases along claims, so
//     again no collisions, and claims never hit a T node's cycle edge since
//     cycle edges join two T nodes).
//
// Unclaimed edges are oriented toward the larger-id endpoint (self-loops
// toward side 1). Each node's decision depends on a radius-O(log n) ball;
// the per-node certificate radius is reported for round accounting, and
// tests audit it by re-running the rule on extracted balls.
//
// Cost. Each node of degree >= 3 that lies on a cycle (a non-bridge edge or
// a self-loop) pays for one BFS ball: out to radius L/2, or until no
// shorter cycle through it is possible. When that BFS finds scl(v) >= 3,
// v's claim reuses the same ball: a depth-first search enumerates the
// length-scl(v) cycles through v inside radius ⌊scl(v)/2⌋ (every node of
// such a cycle lies there), capped at a fixed expansion budget, and
// canonicalises each closed cycle in O(scl(v)) without allocating. The
// per-node loops run through parallel_for; all scratch is one flat
// per-thread ball, cleared from its touched list at the start of every
// search.
#pragma once

#include <cstdint>
#include <optional>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "local/engine.hpp"
#include "local/ids.hpp"
#include "lcl/problems/sinkless_orientation.hpp"

namespace padlock {

/// Short-cycle length budget L(n).
int sinkless_det_cycle_budget(std::size_t n_known);

struct SinklessDetResult {
  Orientation tails;
  RoundReport report;
};

/// Batch evaluation of the rule on the whole graph (fast path).
/// `n_known` is the size bound handed to the nodes (>= g.num_nodes()).
SinklessDetResult sinkless_orientation_det(const Graph& g, const IdMap& ids,
                                           std::size_t n_known);

/// Evaluates the rule for a single edge from scratch (slow; locality
/// audits). Returns the tail side (0/1) of edge e.
int sinkless_det_edge_rule(const Graph& g, const IdMap& ids,
                           std::size_t n_known, EdgeId e);

/// Exposed for tests: shortest simple cycle through v of length <= budget
/// (exact; via BFS with root-subtree labels), nullopt if none. v's own ports
/// are scanned first, in port order: a self-loop reports 1 and a second
/// edge to one neighbor reports 2 (budget >= 2), whichever comes first.
std::optional<int> short_cycle_through(const Graph& g, NodeId v, int budget);

class AlgorithmRegistry;

/// Registers sinkless-orientation/short-cycle-det behind the unified runner API.
void register_sinkless_det_algos(AlgorithmRegistry& registry);

}  // namespace padlock
