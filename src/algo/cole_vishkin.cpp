#include "algo/cole_vishkin.hpp"

#include "core/registry.hpp"
#include "lcl/problems/coloring.hpp"

#include <bit>
#include <vector>

namespace padlock {

namespace {

/// One bit-trick reduction step: the new color encodes the lowest bit
/// position where `mine` and `succ` differ, plus my bit's value there.
std::uint64_t cv_reduce(std::uint64_t mine, std::uint64_t succ) {
  PADLOCK_REQUIRE(mine != succ);
  const int i = std::countr_zero(mine ^ succ);
  return 2 * static_cast<std::uint64_t>(i) + ((mine >> i) & 1);
}

/// Upper bound on colors after one reduction from a palette of `space`
/// colors: bit positions < width, so new colors < 2 * width.
std::uint64_t reduced_space(std::uint64_t space) {
  const int width = std::bit_width(space - 1);
  return 2 * static_cast<std::uint64_t>(width);
}

}  // namespace

int cole_vishkin_iterations(std::uint64_t id_space) {
  PADLOCK_REQUIRE(id_space >= 2);
  int iters = 0;
  std::uint64_t space = id_space;
  while (space > 6) {
    space = reduced_space(space);
    ++iters;
  }
  return iters;
}

NodeMap<int> cycle_successor_ports(const Graph& g) {
  // build::cycle inserts edge {v, v+1} as v's first edge only for v == 0;
  // every other node meets its predecessor edge first.
  NodeMap<int> succ(g, 1);
  if (g.num_nodes() > 0) succ[0] = 0;
  if (g.num_nodes() == 1) succ[0] = 0;  // single self-loop
  return succ;
}

bool successor_ports_consistent(const Graph& g, const NodeMap<int>& succ_port) {
  if (succ_port.size() != g.num_nodes()) return false;
  EdgeMap<int> chosen_by(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) != 2) return false;
    const int p = succ_port[v];
    if (p < 0 || p >= 2) return false;
    const HalfEdge h = g.incidence(v, p);
    if (g.is_self_loop(h.edge)) continue;  // 1-cycle: trivially consistent
    ++chosen_by[h.edge];
  }
  // Each non-loop edge is the successor edge of at most one endpoint, and
  // each node's two edges split into one successor and one predecessor
  // edge; on a disjoint union of directed cycles every edge is chosen
  // exactly once.
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (!g.is_self_loop(e) && chosen_by[e] != 1) return false;
  return true;
}

ColeVishkinResult cole_vishkin_3color(const Graph& g, const IdMap& ids,
                                      const NodeMap<int>& succ_port,
                                      std::uint64_t id_space) {
  PADLOCK_REQUIRE(ids_valid(g, ids));
  PADLOCK_REQUIRE(successor_ports_consistent(g, succ_port));
  const int iters = cole_vishkin_iterations(id_space);

  // Each loop iteration below is exactly one synchronous communication
  // round: every node learns (only) colors from one step along the cycle.
  const auto n = g.num_nodes();
  std::vector<std::uint64_t> color(n);
  auto successor = [&](NodeId v) { return g.neighbor(v, succ_port[v]); };
  for (NodeId v = 0; v < n; ++v) {
    PADLOCK_REQUIRE(g.degree(v) == 2);
    PADLOCK_REQUIRE(successor(v) != v);  // a self-loop admits no coloring
    PADLOCK_REQUIRE(ids[v] <= id_space);
    color[v] = ids[v];
  }
  int rounds = 0;
  // Run-scoped buffers, reused across rounds (the old code allocated up to
  // three fresh vectors per round).
  std::vector<std::uint64_t> succ(n), succ2(n), next(n);
  auto successor_colors = [&] {
    for (NodeId v = 0; v < n; ++v) succ[v] = color[successor(v)];
  };

  // Phase 1: the fixed schedule of bit reductions (a function of id_space,
  // so all nodes agree on its length without communication).
  for (int it = 0; it < iters; ++it) {
    successor_colors();
    for (NodeId v = 0; v < n; ++v) color[v] = cv_reduce(color[v], succ[v]);
    ++rounds;
  }
  for (NodeId v = 0; v < n; ++v) PADLOCK_ASSERT(color[v] <= 5);

  // Phase 2: three shift+recolor rounds eliminate colors 5, 4, 3. The shift
  // ("adopt successor's color") keeps the coloring proper, and after it a
  // node of the target color knows both shifted neighbor colors locally:
  // the predecessor's shifted color is the node's own pre-shift color, and
  // the successor's shifted color is the successor's successor's pre-shift
  // color, which travels in the same round's message (pairs of colors).
  for (std::uint64_t target = 5; target >= 3; --target) {
    successor_colors();
    for (NodeId v = 0; v < n; ++v) succ2[v] = succ[successor(v)];
    for (NodeId v = 0; v < n; ++v) {
      std::uint64_t c = succ[v];  // shift down
      if (c == target) {
        // Both shifted neighbor colors (color[v] behind, succ2[v] ahead)
        // differ from c; the smallest free color is < 3.
        for (std::uint64_t cand = 0;; ++cand) {
          if (cand != color[v] && cand != succ2[v]) {
            c = cand;
            break;
          }
        }
        PADLOCK_ASSERT(c <= 2);
      }
      next[v] = c;
    }
    std::swap(color, next);
    ++rounds;
  }

  ColeVishkinResult result{NodeMap<int>(g, 0), rounds};
  for (NodeId v = 0; v < n; ++v) {
    PADLOCK_ASSERT(color[v] <= 2);
    result.colors[v] = static_cast<int>(color[v]) + 1;
  }
  return result;
}


bool graph_oriented_cycle(const Graph& g) {
  if (g.num_nodes() == 0 || !g.loop_free()) return false;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) != 2) return false;
  }
  return successor_ports_consistent(g, cycle_successor_ports(g));
}

void register_cole_vishkin_algos(AlgorithmRegistry& r) {
  r.register_algo({
      .name = "cole-vishkin",
      .problem = "3-coloring",
      .determinism = Determinism::kDeterministic,
      .complexity = "Theta(log* n)",
      .requires_text = "consistently orientable cycles (build::cycle ports)",
      .precondition = graph_oriented_cycle,
      .solve =
          [](const RunContext& ctx) {
            const auto res =
                cole_vishkin_3color(ctx.graph, ctx.ids,
                                    cycle_successor_ports(ctx.graph),
                                    ctx.id_space);
            AlgoResult out{.output = colors_to_labeling(ctx.graph, res.colors),
                           .rounds =
                               RoundReport::uniform(ctx.graph, res.rounds),
                           .stats = {}};
            out.stats.set("bit_reduction_iterations", res.rounds - 3);
            return out;
          },
  });
}

}  // namespace padlock
