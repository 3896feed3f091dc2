#include "algo/sinkless_det.hpp"

#include "core/registry.hpp"

#include <algorithm>
#include <bit>
#include <queue>
#include <unordered_map>
#include <vector>

#include "graph/metrics.hpp"

namespace padlock {

namespace {

constexpr std::size_t kEnumBudget = 4'000'000;

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

}  // namespace

int sinkless_det_cycle_budget(std::size_t n_known) {
  return 2 * ceil_log2(std::max<std::size_t>(n_known, 2)) + 2;
}

std::optional<int> short_cycle_through(const Graph& g, NodeId v, int budget) {
  PADLOCK_REQUIRE(v < g.num_nodes());
  PADLOCK_REQUIRE(budget >= 1);

  // Immediate cases: self-loop (length 1), parallel pair at v (length 2).
  {
    std::unordered_map<NodeId, int> seen;
    for (int p = 0; p < g.degree(v); ++p) {
      const NodeId w = g.neighbor(v, p);
      if (w == v) return 1;  // self-loop occupies two ports; found either way
      if (++seen[w] == 2 && budget >= 2) return 2;
    }
  }

  // Truncated BFS with root-subtree labels: the label of a node is the port
  // (at v) of the tree edge's first hop. A non-tree edge joining different
  // subtrees (or returning to the root) closes a simple cycle through v of
  // length dist[x] + dist[y] + 1 (resp. dist[x] + 1), and conversely the
  // shortest cycle through v is always witnessed by such an edge.
  //
  // Flat scratch arrays (reset via the touched list) keep the per-node
  // sweep cheap; this function runs once per node in the batch solver.
  thread_local std::vector<int> dist, subtree;
  thread_local std::vector<EdgeId> via;
  thread_local std::vector<NodeId> touched;
  if (dist.size() < g.num_nodes()) {
    dist.assign(g.num_nodes(), -1);
    subtree.assign(g.num_nodes(), -1);
    via.assign(g.num_nodes(), kNoEdge);
  }
  touched.clear();
  dist[v] = 0;
  subtree[v] = -1;
  via[v] = kNoEdge;
  touched.push_back(v);
  std::queue<NodeId> q;
  q.push(v);
  std::optional<int> best;
  const int limit = budget / 2;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    const int du = dist[u];
    if (du > limit) continue;
    if (best && 2 * du - 1 >= *best) continue;  // cannot improve further
    for (int p = 0; p < g.degree(u); ++p) {
      const HalfEdge h = g.incidence(u, p);
      const NodeId w = g.node_across(h);
      if (dist[w] == -1) {
        if (du + 1 > limit) continue;  // beyond the explored shell
        dist[w] = du + 1;
        subtree[w] = (u == v) ? p : subtree[u];
        via[w] = h.edge;
        touched.push_back(w);
        q.push(w);
        continue;
      }
      // Known node: non-tree edge?
      if (via[w] == h.edge || via[u] == h.edge) continue;
      int len = 0;
      if (w == v) {
        len = du + 1;  // edge back to the root
      } else if (subtree[w] != subtree[u]) {
        len = du + dist[w] + 1;
      } else {
        continue;  // same-subtree chord: cycle need not pass through v
      }
      if (len <= budget && (!best || len < *best)) best = len;
    }
  }
  for (const NodeId t : touched) {
    dist[t] = -1;
    subtree[t] = -1;
    via[t] = kNoEdge;
  }
  return best;
}

namespace {

// ---- Canonical cycle machinery -------------------------------------------

/// A simple cycle through some node, as parallel arrays: nodes[i] joined to
/// nodes[(i+1) % k] by edges[i].
struct Cycle {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
};

using CanonSeq = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Canonical sequence: lexicographically smallest rotation/reflection of
/// [(id(node_i), key(edge_i))]. A property of the cycle alone, so every
/// observer derives the same sequence — and hence the same traversal
/// direction.
CanonSeq canonical_sequence(const Graph& g, const IdMap& ids, const Cycle& c,
                            std::vector<NodeId>* canon_nodes,
                            std::vector<EdgeId>* canon_edges) {
  const std::size_t k = c.nodes.size();
  PADLOCK_REQUIRE(k >= 1 && c.edges.size() == k);
  CanonSeq best;
  std::vector<NodeId> best_nodes;
  std::vector<EdgeId> best_edges;
  auto consider = [&](const std::vector<NodeId>& ns,
                      const std::vector<EdgeId>& es) {
    CanonSeq seq(k);
    for (std::size_t i = 0; i < k; ++i)
      seq[i] = {ids[ns[i]], edge_key(g, ids, es[i])};
    if (best.empty() || seq < best) {
      best = std::move(seq);
      best_nodes = ns;
      best_edges = es;
    }
  };
  std::vector<NodeId> ns(k);
  std::vector<EdgeId> es(k);
  for (std::size_t r = 0; r < k; ++r) {
    // Forward rotation starting at r.
    for (std::size_t i = 0; i < k; ++i) {
      ns[i] = c.nodes[(r + i) % k];
      es[i] = c.edges[(r + i) % k];
    }
    consider(ns, es);
    // Reflection: nodes reversed, edge i connects ns[i] to ns[i+1].
    for (std::size_t i = 0; i < k; ++i) {
      ns[i] = c.nodes[(r + k - i) % k];
      es[i] = c.edges[(r + k - 1 - i) % k];
    }
    consider(ns, es);
  }
  if (canon_nodes != nullptr) *canon_nodes = best_nodes;
  if (canon_edges != nullptr) *canon_edges = best_edges;
  return best;
}

/// All simple cycles of length exactly k through v (each reported in both
/// traversal directions; canonicalization collapses them).
void enumerate_cycles_through(const Graph& g, NodeId v, int k,
                              std::vector<Cycle>& out) {
  out.clear();
  PADLOCK_REQUIRE(k >= 1);
  if (k == 1) {
    for (int p = 0; p < g.degree(v); ++p) {
      const HalfEdge h = g.incidence(v, p);
      if (g.node_across(h) == v && h.side == 0)
        out.push_back(Cycle{{v}, {h.edge}});
    }
    return;
  }

  // BFS distances from v, for pruning. Every node of a simple k-cycle
  // through v lies within floor(k/2) of v, and a node farther out fails the
  // `dist > k - (t+1)` test below anyway (it is first reached at step
  // t+1 >= dist > k - dist), so the search stops at that radius instead of
  // covering the graph.
  thread_local std::vector<int> dist;
  thread_local std::vector<char> on_path;
  thread_local std::vector<NodeId> touched;
  if (dist.size() < g.num_nodes()) {
    dist.assign(g.num_nodes(), -1);
    on_path.assign(g.num_nodes(), 0);
  }
  // Clear the previous call's ball first, so a call cut short by the
  // enumeration budget leaves no stale marks behind.
  for (const NodeId t : touched) {
    dist[t] = -1;
    on_path[t] = 0;
  }
  touched.clear();
  const int radius = k / 2;
  dist[v] = 0;
  touched.push_back(v);
  for (std::size_t head = 0; head < touched.size(); ++head) {
    const NodeId u = touched[head];
    if (dist[u] >= radius) continue;
    for (int p = 0; p < g.degree(u); ++p) {
      const NodeId w = g.neighbor(u, p);
      if (dist[w] != -1) continue;
      dist[w] = dist[u] + 1;
      touched.push_back(w);
    }
  }

  std::size_t expansions = 0;
  std::vector<NodeId> path_nodes{v};
  std::vector<EdgeId> path_edges;
  on_path[v] = 1;

  auto dfs = [&](auto&& self, NodeId u, int t) -> void {
    PADLOCK_REQUIRE(++expansions < kEnumBudget);
    for (int p = 0; p < g.degree(u); ++p) {
      const HalfEdge h = g.incidence(u, p);
      const NodeId w = g.node_across(h);
      if (t + 1 == k) {
        // Closing step: must return to v via a fresh edge.
        if (w != v) continue;
        if (!path_edges.empty() && path_edges.front() == h.edge) continue;
        if (std::find(path_edges.begin(), path_edges.end(), h.edge) !=
            path_edges.end())
          continue;
        Cycle c;
        c.nodes = path_nodes;
        c.edges = path_edges;
        c.edges.push_back(h.edge);
        out.push_back(std::move(c));
        continue;
      }
      if (w == u) continue;  // self-loop cannot extend a longer cycle
      if (on_path[w]) continue;
      if (dist[w] == -1 || dist[w] > k - (t + 1)) continue;
      path_nodes.push_back(w);
      path_edges.push_back(h.edge);
      on_path[w] = 1;
      self(self, w, t + 1);
      on_path[w] = 0;
      path_nodes.pop_back();
      path_edges.pop_back();
    }
  };
  dfs(dfs, v, 0);
}

/// Canonical minimum short cycle through v (requires scl(v) == k known) and
/// the successor edge of v along its canonical direction.
EdgeId canonical_cycle_successor(const Graph& g, const IdMap& ids, NodeId v,
                                 int k) {
  std::vector<Cycle> cycles;
  enumerate_cycles_through(g, v, k, cycles);
  PADLOCK_REQUIRE(!cycles.empty());
  CanonSeq best;
  std::vector<NodeId> best_nodes;
  std::vector<EdgeId> best_edges;
  for (const Cycle& c : cycles) {
    std::vector<NodeId> ns;
    std::vector<EdgeId> es;
    CanonSeq seq = canonical_sequence(g, ids, c, &ns, &es);
    if (best.empty() || seq < best) {
      best = std::move(seq);
      best_nodes = std::move(ns);
      best_edges = std::move(es);
    }
  }
  // Successor edge of v in the canonical traversal.
  for (std::size_t i = 0; i < best_nodes.size(); ++i)
    if (best_nodes[i] == v) return best_edges[i];
  PADLOCK_ASSERT(false);
  return kNoEdge;
}

// ---- Claim computation -----------------------------------------------------

struct RuleTables {
  std::vector<int> scl;        // capped shortest cycle length; -1 if none
  std::vector<int> dist_t2;    // distance to T2 (0 for members)
  int budget = 0;
};

bool in_t(const RuleTables& t, NodeId v) { return t.scl[v] >= 0; }

RuleTables build_tables(const Graph& g, std::size_t n_known) {
  RuleTables t;
  t.budget = sinkless_det_cycle_budget(n_known);
  const auto n = g.num_nodes();
  t.scl.assign(n, -1);
  for (NodeId v = 0; v < n; ++v) {
    const auto c = short_cycle_through(g, v, t.budget);
    if (c) t.scl[v] = *c;
  }
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < n; ++v)
    if (t.scl[v] >= 0 || g.degree(v) <= 2) sources.push_back(v);
  t.dist_t2.assign(n, kUnreachable);
  if (!sources.empty()) {
    const auto d = bfs_distances(g, sources);
    for (NodeId v = 0; v < n; ++v) t.dist_t2[v] = d[v];
  }
  return t;
}

/// The edge v claims as its out-edge, or kNoEdge.
EdgeId claim_of(const Graph& g, const IdMap& ids, const RuleTables& t,
                NodeId v) {
  if (g.degree(v) <= 2) return kNoEdge;
  if (in_t(t, v)) return canonical_cycle_successor(g, ids, v, t.scl[v]);
  // Toward T2: neighbor at distance dist-1, smallest id, then lowest port.
  const int d = t.dist_t2[v];
  PADLOCK_REQUIRE(d != kUnreachable && d >= 1);
  EdgeId best = kNoEdge;
  std::uint64_t best_id = 0;
  for (int p = 0; p < g.degree(v); ++p) {
    const HalfEdge h = g.incidence(v, p);
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
  const RuleTables t = build_tables(g, n_known);
  std::vector<EdgeId> claim(g.num_nodes(), kNoEdge);
  for (NodeId v = 0; v < g.num_nodes(); ++v) claim[v] = claim_of(g, ids, t, v);

  SinklessDetResult result;
  result.tails = orient_from_claims(g, ids, claim);

  // Round accounting: a node decides the orientation of its own incident
  // edges, which requires its own and all neighbors' certificates.
  NodeMap<int> per_node(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    int r = certificate_radius(g, t, v);
    for (int p = 0; p < g.degree(v); ++p)
      r = std::max(r, certificate_radius(g, t, g.neighbor(v, p)));
    per_node[v] = r + 1;
  }
  result.report = RoundReport::from(std::move(per_node));
  return result;
}

int sinkless_det_edge_rule(const Graph& g, const IdMap& ids,
                           std::size_t n_known, EdgeId e) {
  PADLOCK_REQUIRE(e < g.num_edges());
  const RuleTables t = build_tables(g, n_known);
  const auto [u, w] = g.endpoints(e);
  if (g.is_self_loop(e)) {
    // Claimed or not, a self-loop is oriented side0 -> side1.
    return 0;
  }
  if (claim_of(g, ids, t, u) == e) return 0;
  if (claim_of(g, ids, t, w) == e) return 1;
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
            const std::size_t n = ctx.graph.num_nodes();
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
