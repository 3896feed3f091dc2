#include "algo/sinkless_rand.hpp"

#include "core/registry.hpp"

#include <algorithm>
#include <optional>
#include <bit>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/rng.hpp"

namespace padlock {

namespace {

constexpr int kUnoriented = -1;

struct OrientState {
  // tail side per edge, or kUnoriented.
  std::vector<int> tail;
  std::vector<int> outdeg;

  explicit OrientState(const Graph& g)
      : tail(g.num_edges(), kUnoriented), outdeg(g.num_nodes(), 0) {}

  void orient(const Graph& g, EdgeId e, int side) {
    PADLOCK_REQUIRE(tail[e] == kUnoriented);
    tail[e] = side;
    ++outdeg[g.endpoint(e, side)];
  }

  void flip(const Graph& g, EdgeId e) {
    PADLOCK_REQUIRE(tail[e] != kUnoriented);
    --outdeg[g.endpoint(e, tail[e])];
    tail[e] = 1 - tail[e];
    ++outdeg[g.endpoint(e, tail[e])];
  }

  [[nodiscard]] bool satisfied(const Graph& g, NodeId v) const {
    return g.degree(v) <= 2 || outdeg[v] > 0;
  }
};

/// An augmenting repair: flip `flip_edges` (a reverse path, possibly
/// closed by a directed cycle) and optionally claim `claim_edge` outward
/// from `claim_side`. `touched` = all nodes involved (conflict footprint).
struct Repair {
  std::vector<EdgeId> flip_edges;
  EdgeId claim_edge = kNoEdge;
  int claim_side = 0;
  std::vector<NodeId> touched;
  /// The out-degree->=2 node donating an out-edge, if that is how the
  /// search terminated (conflict bookkeeping: two repairs may not drain
  /// the same donor).
  NodeId donor = kNoNode;
  int radius = 0;
};

/// Searches backwards from v (over edges oriented *into* the current node)
/// for an augmenting structure within `radius`. Returns nullopt if none in
/// range. Deterministic given the current orientation.
std::optional<Repair> find_repair(const Graph& g, const OrientState& st,
                                  NodeId v, int radius,
                                  const std::unordered_set<EdgeId>& blocked) {
  // Trivial: an unoriented incident edge (including an unoriented
  // self-loop) can simply be claimed.
  for (int p = 0; p < g.degree(v); ++p) {
    const HalfEdge h = g.incidence(v, p);
    if (blocked.contains(h.edge)) continue;
    if (st.tail[h.edge] == kUnoriented) {
      Repair r;
      r.claim_edge = h.edge;
      r.claim_side = h.side;
      r.touched = {v, g.node_across(h)};
      r.radius = 1;
      return r;
    }
  }

  // BFS along incoming edges. parent_edge[u] = the (flipped-to-be) edge
  // through which u was reached.
  std::unordered_map<NodeId, EdgeId> parent_edge;
  std::unordered_map<NodeId, NodeId> parent_node;
  std::unordered_map<NodeId, int> depth;
  parent_edge[v] = kNoEdge;
  parent_node[v] = kNoNode;
  depth[v] = 0;
  std::queue<NodeId> q;
  q.push(v);

  auto path_from = [&](NodeId end) {
    Repair r;
    for (NodeId x = end; x != v; x = parent_node.at(x)) {
      r.flip_edges.push_back(parent_edge.at(x));
      r.touched.push_back(x);
    }
    r.touched.push_back(v);
    std::reverse(r.flip_edges.begin(), r.flip_edges.end());
    r.radius = depth.at(end);
    return r;
  };

  while (!q.empty()) {
    const NodeId a = q.front();
    q.pop();
    if (depth.at(a) >= radius) continue;
    for (int p = 0; p < g.degree(a); ++p) {
      const HalfEdge h = g.incidence(a, p);
      const EdgeId e = h.edge;
      if (e == parent_edge.at(a)) continue;
      if (blocked.contains(e)) continue;
      if (st.tail[e] == kUnoriented) {
        // Flip the path to a, then claim this free edge outward from a.
        Repair r = path_from(a);
        r.claim_edge = e;
        r.claim_side = h.side;
        r.touched.push_back(g.node_across(h));
        r.radius = std::max(r.radius, depth.at(a) + 1);
        return r;
      }
      // Traversable iff oriented into a, i.e. the far side is the tail.
      if (st.tail[e] != 1 - h.side) continue;
      const NodeId b = g.node_across(h);
      if (b == a) continue;  // oriented self-loop: owner already satisfied
      if (parent_edge.contains(b)) {
        // A revisited node owns two out-edges (its tree parent edge and e),
        // so it had out-degree >= 2 at discovery and the search returned
        // there; and b == v is impossible since v has out-degree 0. This
        // branch is therefore unreachable; skipping keeps it harmless.
        continue;
      }
      // Fresh node: does it terminate the search?
      if (st.outdeg[b] >= 2 || g.degree(b) <= 2) {
        Repair r = path_from(a);
        r.flip_edges.push_back(e);
        r.touched.push_back(b);
        if (st.outdeg[b] >= 2) r.donor = b;
        r.radius = std::max(r.radius, depth.at(a) + 1);
        return r;
      }
      parent_edge[b] = e;
      parent_node[b] = a;
      depth[b] = depth.at(a) + 1;
      q.push(b);
    }
  }
  return std::nullopt;
}

void apply_repair(const Graph& g, OrientState& st, const Repair& r) {
  for (EdgeId e : r.flip_edges) st.flip(g, e);
  if (r.claim_edge != kNoEdge && st.tail[r.claim_edge] == kUnoriented)
    st.orient(g, r.claim_edge, r.claim_side);
}

}  // namespace

int sinkless_rand_propose_schedule(std::size_t n_known) {
  (void)n_known;
  return 1;  // a single random-orientation round; see header
}

SinklessRandResult sinkless_orientation_rand(const Graph& g, const IdMap& ids,
                                             std::size_t n_known,
                                             std::uint64_t seed) {
  PADLOCK_REQUIRE(ids_valid(g, ids));
  PADLOCK_REQUIRE(n_known >= g.num_nodes());

  SinklessRandResult result;
  OrientState st(g);

  // Phase 1 (one communication round): every edge orients toward the
  // endpoint half with the larger random priority. Both endpoints compute
  // the same comparison after exchanging their random bits, so no further
  // coordination is needed. Self-loops orient side 0 -> side 1 and satisfy
  // their owner outright.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.is_self_loop(e)) {
      st.orient(g, e, 0);
      continue;
    }
    std::uint64_t prio[2];
    for (int side = 0; side < 2; ++side) {
      const NodeId v = g.endpoint(e, side);
      // Per-half-edge randomness drawn from the owner's private stream.
      prio[side] = mix64(per_node_seed(seed, ids[v]) ^
                         (0x9E3779B97F4A7C15ULL *
                          (static_cast<std::uint64_t>(g.port_of(
                               HalfEdge{e, side})) +
                           1)));
    }
    const int tail = (prio[0] != prio[1]) ? (prio[0] > prio[1] ? 0 : 1)
                                          : (ids[g.endpoint(e, 0)] >
                                                     ids[g.endpoint(e, 1)]
                                                 ? 0
                                                 : 1);
    st.orient(g, e, tail);
  }
  result.rounds += 1;
  result.propose_iterations = 1;

  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (!st.satisfied(g, v)) ++result.unsatisfied_after_propose;

  // Phase 2: repair sub-phases with doubling radius budget. Repairs are
  // committed greedily by initiator id against the live state; edges
  // already flipped or claimed this sub-phase are locked so no repair is
  // undone. Because the state is applied sequentially, a donor node with
  // current out-degree >= 2 can safely donate regardless of earlier
  // repairs, and an initiator that sees a locked edge in its ball simply
  // searches for an alternative augmenting structure in the same gather —
  // everything a node needs is inside its radius-r view, so an attempt at
  // radius r costs 2r + 1 rounds (gather, win the locally visible id
  // competition, flip). A node's completion time is the sum of its attempt
  // costs; the global round count is the maximum over nodes, since
  // non-interacting repairs run concurrently.
  int radius = 2;
  const int hard_cap =
      2 * std::bit_width(std::max<std::size_t>(n_known, 2)) + 8;
  std::unordered_map<NodeId, int> completion;
  int phase2_rounds = 0;
  while (true) {
    std::vector<NodeId> unsat;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (!st.satisfied(g, v)) unsat.push_back(v);
    if (unsat.empty()) break;
    ++result.repair_subphases;

    std::unordered_set<EdgeId> locked_edges;
    bool progress = false;
    for (NodeId v : unsat) {  // ascending node id = id order
      if (st.satisfied(g, v)) continue;
      const auto rep = find_repair(g, st, v, radius, locked_edges);
      completion[v] += 2 * (rep ? rep->radius : radius) + 1;
      if (!rep) continue;  // retry next sub-phase at a larger radius
      for (EdgeId e : rep->flip_edges) locked_edges.insert(e);
      if (rep->claim_edge != kNoEdge) locked_edges.insert(rep->claim_edge);
      apply_repair(g, st, *rep);
      result.max_repair_radius =
          std::max(result.max_repair_radius, rep->radius);
      phase2_rounds = std::max(phase2_rounds, completion[v]);
      PADLOCK_ASSERT(st.satisfied(g, v));
      progress = true;
    }
    if (!progress) {
      PADLOCK_REQUIRE(radius < hard_cap);  // existence lemma: <= log2 n + 2
      radius = std::min(2 * radius, hard_cap);
    }
  }
  result.rounds += phase2_rounds;

  // Finish: orient leftover edges arbitrarily (cannot unsatisfy anyone).
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (st.tail[e] == kUnoriented)
      st.orient(g, e,
                ids[g.endpoint(e, 0)] > ids[g.endpoint(e, 1)] ? 0 : 1);

  result.tails = Orientation(g, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) result.tails[e] = st.tail[e];
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    PADLOCK_ASSERT(st.satisfied(g, v));
  return result;
}


void register_sinkless_rand_algos(AlgorithmRegistry& r) {
  r.register_algo({
      .name = "propose-repair",
      .problem = "sinkless-orientation",
      .determinism = Determinism::kRandomized,
      .complexity = "poly(log log n) whp (shattering)",
      .requires_text = "",
      .precondition = nullptr,
      .solve =
          [](const RunContext& ctx) {
            const auto res = sinkless_orientation_rand(
                ctx.graph, ctx.ids,
                std::max(ctx.n_known, ctx.graph.num_nodes()), ctx.seed);
            AlgoResult out{
                .output = orientation_to_labeling(ctx.graph, res.tails),
                .rounds = RoundReport::uniform(ctx.graph, res.rounds),
                .stats = {}};
            out.stats.set("propose_iterations", res.propose_iterations);
            out.stats.set("repair_subphases", res.repair_subphases);
            out.stats.set("max_repair_radius", res.max_repair_radius);
            out.stats.set("unsatisfied_after_propose",
                          res.unsatisfied_after_propose);
            return out;
          },
  });
}

}  // namespace padlock
