#include "algo/sinkless_det.hpp"

#include "core/registry.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "graph/metrics.hpp"
#include "support/thread_pool.hpp"

namespace padlock {

namespace {

constexpr std::size_t kEnumBudget = 4'000'000;

/// Nodes per chunk of the pooled per-node loops. On an expander one node's
/// search covers a ball of about sqrt(n) nodes, so chunks stay small; a
/// graph of at most one chunk runs inline.
constexpr std::size_t kNodeGrain = 256;

int ceil_log2(std::size_t n) {
  if (n <= 1) return 0;
  return std::bit_width(n - 1);
}

/// Observer-independent identity of an edge among parallels: the ports at
/// the smaller-id endpoint and at the larger-id endpoint (for self-loops,
/// the two ports in ascending order).
std::uint64_t edge_key(const Graph& g, const IdMap& ids, EdgeId e) {
  const auto [u, v] = g.endpoints(e);
  int pu = g.port_of(HalfEdge{e, 0});
  int pv = g.port_of(HalfEdge{e, 1});
  bool swap = false;
  if (u == v) {
    swap = pu > pv;
  } else {
    swap = ids[u] > ids[v];
  }
  if (swap) std::swap(pu, pv);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pu)) << 32) |
         static_cast<std::uint32_t>(pv);
}

// ---- Per-thread search scratch ---------------------------------------------

/// One search's ball around its root: a flat per-node record array (a
/// node's four fields share one 16-byte record, so a ball of a few thousand
/// scattered nodes costs one cache miss per node, not four) and `touched`,
/// the nodes with dist != -1 in BFS order, which doubles as the BFS queue.
/// Every search starts from fresh_ball(), which clears the previous
/// search's records from `touched`; a search cut short by an exception (the
/// enumeration budget) leaves records behind, and the next search removes
/// them before it reads anything. The one read across two calls is
/// cycle_claim's reuse of the ball that short_cycle_through just left for
/// the same root.
struct Ball {
  struct Node {
    int dist = -1;
    int subtree = -1;  // port at the root of the BFS tree's first hop
    EdgeId via = kNoEdge;  // BFS tree edge into the node
    bool on_path = false;  // on the DFS path
  };
  std::vector<Node> node;
  std::vector<NodeId> touched;
  std::vector<NodeId> path_nodes;  // DFS path from the root
  std::vector<EdgeId> path_edges;  // path_edges[i] joins path_nodes[i], [i+1]
  // Canonical sequence of the best cycle so far: (id, edge key) per step.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> best;
};

thread_local Ball tl_ball;

Ball& fresh_ball(const Graph& g) {
  Ball& b = tl_ball;
  if (b.node.size() < g.num_nodes()) {
    b.node.assign(g.num_nodes(), Ball::Node{});
  } else {
    for (const NodeId t : b.touched) b.node[t] = Ball::Node{};
  }
  b.touched.clear();
  return b;
}

}  // namespace

int sinkless_det_cycle_budget(std::size_t n_known) {
  return 2 * ceil_log2(std::max<std::size_t>(n_known, 2)) + 2;
}

// Leaves its BFS ball in tl_ball whenever it returns a length >= 3 (lengths
// 1 and 2 are found on v's own ports, before any ball is grown).
std::optional<int> short_cycle_through(const Graph& g, NodeId v, int budget) {
  PADLOCK_REQUIRE(v < g.num_nodes());
  PADLOCK_REQUIRE(budget >= 1);
  Ball& b = fresh_ball(g);
  const int limit = budget / 2;
  b.node[v].dist = 0;
  b.touched.push_back(v);

  // v's own ports: a self-loop closes a cycle of length 1, a second edge
  // to the same neighbor one of length 2. The scan finishes before it
  // reports 2, so a self-loop wins wherever it sits in port order.
  // Otherwise v's neighbors are distinct and form the BFS's first layer. A
  // neighbor is marked only when budget >= 2, so budget 1 never reports 2.
  int port = 0;
  bool parallel = false;
  for (const HalfEdge h : g.incident(v)) {
    const NodeId w = g.node_across(h);
    if (w == v) return 1;
    if (b.node[w].dist == 1) {
      parallel = true;
    } else if (limit >= 1) {
      b.node[w].dist = 1;
      b.node[w].subtree = port;
      b.node[w].via = h.edge;
      b.touched.push_back(w);
    }
    ++port;
  }
  if (parallel) return 2;

  // Truncated BFS with root-subtree labels: the label of a node is the port
  // (at v) of the tree edge's first hop; v itself has none. A non-tree edge
  // joining different subtrees (or returning to the root) closes a simple
  // cycle through v of length dist[x] + dist[y] + 1, and conversely the
  // shortest cycle through v is always witnessed by such an edge.
  std::optional<int> best;
  for (std::size_t head = 1; head < b.touched.size(); ++head) {
    const NodeId u = b.touched[head];
    const int du = b.node[u].dist;
    // u can only close cycles of length >= 2·du + 1: a non-tree edge to a
    // node x at distance du - 1 was already seen, with the same length,
    // when x was processed (for x == v, as a parallel pair above). Nodes
    // leave in nondecreasing distance and best only shrinks, so the first
    // node that cannot improve on best ends the search. Every node within
    // floor(best/2) of v is in the ball by then.
    if (best && 2 * du + 1 >= *best) break;
    for (const HalfEdge h : g.incident(u)) {
      const NodeId w = g.node_across(h);
      if (b.node[w].dist == -1) {
        if (du + 1 > limit) continue;  // beyond the explored shell
        b.node[w].dist = du + 1;
        b.node[w].subtree = b.node[u].subtree;
        b.node[w].via = h.edge;
        b.touched.push_back(w);
        continue;
      }
      // Known node: non-tree edge?
      if (b.node[w].via == h.edge || b.node[u].via == h.edge) continue;
      // A same-subtree chord closes a cycle that need not pass through v.
      if (b.node[w].subtree == b.node[u].subtree) continue;
      const int len = du + b.node[w].dist + 1;
      if (len <= budget && (!best || len < *best)) best = len;
    }
  }
  return best;
}

namespace {

// ---- Canonical cycle claim -------------------------------------------------

/// v's successor edge on C(v), the canonical minimum cycle through v, given
/// scl(v) == k. Must directly follow the short_cycle_through for v on this
/// thread that returned k.
///
/// The search enumerates the simple k-cycles through v by a depth-first
/// search over v's ball of radius floor(k/2): every node of such a cycle
/// lies in it, and a node farther out fails the `dist > k - (t+1)` test
/// anyway (it is first reached at step t+1 >= dist > k - dist). For k >= 3
/// that ball is the one short_cycle_through just grew: it holds every
/// node within floor(k/2) of v at its exact distance, and whatever shell
/// lies beyond is pruned by the same test. For k <= 2 no ball was grown, so
/// the claim grows its own (v, and for k == 2 its neighbors).
///
/// A cycle's canonical sequence is the lexicographically smallest of its 2k
/// rotations and reflections of [(id(node_i), key(edge_i))]: a property of
/// the cycle alone, so every observer derives the same sequence and
/// direction. Ids are distinct (ids_valid), so that minimum starts at the
/// cycle's min-id node, and only the two directions from it compete: O(k)
/// per closed cycle. C(v) is the first cycle found with the smallest
/// sequence; each cycle is found once per direction, and both finds have
/// the same sequence.
EdgeId cycle_claim(const Graph& g, const IdMap& ids, NodeId v, int k) {
  PADLOCK_REQUIRE(k >= 1);
  Ball& b = tl_ball;
  if (k <= 2) {
    fresh_ball(g);
    b.node[v].dist = 0;
    b.touched.push_back(v);
    if (k == 2) {
      for (const HalfEdge h : g.incident(v)) {
        const NodeId w = g.node_across(h);
        if (b.node[w].dist != -1) continue;
        b.node[w].dist = 1;
        b.touched.push_back(w);
      }
    }
  }

  b.path_nodes.assign(1, v);
  b.path_edges.clear();
  b.best.clear();
  b.node[v].on_path = true;
  EdgeId succ = kNoEdge;

  // Offers the closed path (path_edges ends with the closing edge).
  const auto offer = [&] {
    const std::size_t len = b.path_nodes.size();
    std::size_t m = 0;
    for (std::size_t i = 1; i < len; ++i)
      if (ids[b.path_nodes[i]] < ids[b.path_nodes[m]]) m = i;
    // Step j of the traversal from m, forward or reflected.
    const auto step = [&](bool fwd, std::size_t j) {
      const std::size_t i = fwd ? (m + j) % len : (m + len - j) % len;
      const EdgeId e = b.path_edges[fwd ? i : (i + len - 1) % len];
      return std::pair{ids[b.path_nodes[i]], edge_key(g, ids, e)};
    };
    bool fwd = true;
    for (std::size_t j = 0; j < len; ++j) {
      const auto f = step(true, j);
      const auto r = step(false, j);
      if (f != r) {
        fwd = f < r;
        break;
      }
    }
    if (!b.best.empty()) {
      std::size_t j = 0;
      while (j < len && step(fwd, j) == b.best[j]) ++j;
      if (j == len || b.best[j] < step(fwd, j)) return;  // not strictly <
    }
    b.best.clear();
    for (std::size_t j = 0; j < len; ++j) b.best.push_back(step(fwd, j));
    succ = fwd ? b.path_edges.front() : b.path_edges.back();
  };

  std::size_t expansions = 0;
  const auto dfs = [&](const auto& self, NodeId u, int t) -> void {
    PADLOCK_REQUIRE(++expansions < kEnumBudget);
    for (const HalfEdge h : g.incident(u)) {
      const NodeId w = g.node_across(h);
      if (t + 1 == k) {
        // Closing step: back to v via a fresh edge. The only path edge
        // that can join u to v is the first one (when k == 2).
        if (w != v) continue;
        if (!b.path_edges.empty() && b.path_edges.front() == h.edge) continue;
        b.path_edges.push_back(h.edge);
        offer();
        b.path_edges.pop_back();
        continue;
      }
      if (w == u) continue;  // self-loop cannot extend a longer cycle
      if (b.node[w].on_path) continue;
      if (b.node[w].dist == -1 || b.node[w].dist > k - (t + 1)) continue;
      b.path_nodes.push_back(w);
      b.path_edges.push_back(h.edge);
      b.node[w].on_path = true;
      self(self, w, t + 1);
      b.node[w].on_path = false;
      b.path_nodes.pop_back();
      b.path_edges.pop_back();
    }
  };
  dfs(dfs, v, 0);
  PADLOCK_REQUIRE(succ != kNoEdge);
  return succ;
}

// ---- Claim computation -----------------------------------------------------

struct RuleTables {
  std::vector<int> scl;        // capped shortest cycle length; -1 if none
  std::vector<int> dist_t2;    // distance to T2 (0 for members)
  std::vector<EdgeId> claim;   // out(v), or kNoEdge
  int budget = 0;
};

bool in_t(const RuleTables& t, NodeId v) { return t.scl[v] >= 0; }

/// out(v) for v ∉ T2: toward T2, the neighbor at distance dist-1 with the
/// smallest id, then the lowest port.
EdgeId claim_toward_t2(const Graph& g, const IdMap& ids, const RuleTables& t,
                       NodeId v) {
  const int d = t.dist_t2[v];
  PADLOCK_REQUIRE(d != kUnreachable && d >= 1);
  EdgeId best = kNoEdge;
  std::uint64_t best_id = 0;
  for (const HalfEdge h : g.incident(v)) {
    const NodeId w = g.node_across(h);
    if (t.dist_t2[w] != d - 1) continue;
    if (best == kNoEdge || ids[w] < best_id) {
      best = h.edge;
      best_id = ids[w];
    }
  }
  PADLOCK_ASSERT(best != kNoEdge);
  return best;
}

/// scl, dist_t2 and every node's claim. Each pooled iteration writes only
/// its own node's slots.
RuleTables build_tables(const Graph& g, const IdMap& ids,
                        std::size_t n_known) {
  RuleTables t;
  t.budget = sinkless_det_cycle_budget(n_known);
  const auto n = g.num_nodes();
  t.scl.assign(n, -1);
  t.claim.assign(n, kNoEdge);
  // A node whose edges are all bridges (no self-loop) lies on no cycle, so
  // its search could only come back empty — on a tree, after visiting the
  // whole budget-radius ball.
  const EdgeMap<bool> bridge = find_bridges(g);
  // T membership and the claims of T's nodes: one ball per node. A node of
  // degree <= 2 claims nothing and is in T2 either way, so its scl is never
  // read.
  parallel_for(0, n, kNodeGrain, [&](std::size_t begin, std::size_t end) {
    for (auto v = static_cast<NodeId>(begin); v < end; ++v) {
      if (g.degree(v) <= 2) continue;
      bool on_cycle = false;
      for (const HalfEdge h : g.incident(v)) {
        on_cycle = g.is_self_loop(h.edge) || !bridge[h.edge];
        if (on_cycle) break;
      }
      if (!on_cycle) continue;
      const auto c = short_cycle_through(g, v, t.budget);
      if (!c) continue;
      t.scl[v] = *c;
      t.claim[v] = cycle_claim(g, ids, v, *c);
    }
  });
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < n; ++v)
    if (t.scl[v] >= 0 || g.degree(v) <= 2) sources.push_back(v);
  t.dist_t2.assign(n, kUnreachable);
  if (!sources.empty()) {
    const auto d = bfs_distances(g, sources);
    for (NodeId v = 0; v < n; ++v) t.dist_t2[v] = d[v];
  }
  parallel_for(0, n, kNodeGrain, [&](std::size_t begin, std::size_t end) {
    for (auto v = static_cast<NodeId>(begin); v < end; ++v)
      if (g.degree(v) > 2 && !in_t(t, v))
        t.claim[v] = claim_toward_t2(g, ids, t, v);
  });
  return t;
}

/// Certificate radius of v's claim (the ball it provably depends on).
int certificate_radius(const Graph& g, const RuleTables& t, NodeId v) {
  if (g.degree(v) <= 2) return 0;
  if (in_t(t, v)) return t.scl[v] / 2 + 1;
  return t.dist_t2[v] + t.budget / 2 + 2;
}

Orientation orient_from_claims(const Graph& g, const IdMap& ids,
                               const std::vector<EdgeId>& claim) {
  Orientation tails(g, 0);
  std::vector<signed char> claimed(g.num_edges(), -1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const EdgeId e = claim[v];
    if (e == kNoEdge) continue;
    const int side = (g.endpoint(e, 0) == v) ? 0 : 1;
    // Collisions are impossible by the canonical-cycle lemma; a self-loop
    // claim is trivially consistent (both sides are v; use side 0).
    if (g.is_self_loop(e)) {
      claimed[e] = 0;
    } else {
      PADLOCK_ASSERT(claimed[e] == -1 || claimed[e] == side);
      claimed[e] = static_cast<signed char>(side);
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (claimed[e] >= 0) {
      tails[e] = claimed[e];
    } else if (g.is_self_loop(e)) {
      tails[e] = 0;
    } else {
      tails[e] = ids[g.endpoint(e, 0)] > ids[g.endpoint(e, 1)] ? 0 : 1;
    }
  }
  return tails;
}

}  // namespace

SinklessDetResult sinkless_orientation_det(const Graph& g, const IdMap& ids,
                                           std::size_t n_known) {
  PADLOCK_REQUIRE(ids_valid(g, ids));
  PADLOCK_REQUIRE(n_known >= g.num_nodes());
  const RuleTables t = build_tables(g, ids, n_known);

  SinklessDetResult result;
  result.tails = orient_from_claims(g, ids, t.claim);

  // Round accounting: a node decides the orientation of its own incident
  // edges, which requires its own and all neighbors' certificates.
  NodeMap<int> per_node(g, 0);
  parallel_for(0, g.num_nodes(), kNodeGrain, [&](std::size_t b, std::size_t e) {
    for (auto v = static_cast<NodeId>(b); v < e; ++v) {
      int r = certificate_radius(g, t, v);
      for (const HalfEdge h : g.incident(v))
        r = std::max(r, certificate_radius(g, t, g.node_across(h)));
      per_node[v] = r + 1;
    }
  });
  result.report = RoundReport::from(std::move(per_node));
  return result;
}

int sinkless_det_edge_rule(const Graph& g, const IdMap& ids,
                           std::size_t n_known, EdgeId e) {
  PADLOCK_REQUIRE(e < g.num_edges());
  PADLOCK_REQUIRE(ids_valid(g, ids));
  const RuleTables t = build_tables(g, ids, n_known);
  const auto [u, w] = g.endpoints(e);
  if (g.is_self_loop(e)) {
    // Claimed or not, a self-loop is oriented side0 -> side1.
    return 0;
  }
  if (t.claim[u] == e) return 0;
  if (t.claim[w] == e) return 1;
  return ids[u] > ids[w] ? 0 : 1;
}


void register_sinkless_det_algos(AlgorithmRegistry& r) {
  r.register_algo({
      .name = "short-cycle-det",
      .problem = "sinkless-orientation",
      .determinism = Determinism::kDeterministic,
      .complexity = "Theta(log n)",
      .requires_text = "",
      .precondition = nullptr,
      .solve =
          [](const RunContext& ctx) {
            const std::size_t n =
                std::max(ctx.n_known, ctx.graph.num_nodes());
            auto res = sinkless_orientation_det(ctx.graph, ctx.ids, n);
            AlgoResult out{
                .output = orientation_to_labeling(ctx.graph, res.tails),
                .rounds = std::move(res.report),  // real per-node radii
                .stats = {}};
            out.stats.set("cycle_budget", sinkless_det_cycle_budget(n));
            return out;
          },
  });
}

}  // namespace padlock
