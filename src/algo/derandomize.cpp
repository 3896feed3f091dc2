#include "algo/derandomize.hpp"

#include "core/registry.hpp"
#include "lcl/problems/coloring.hpp"
#include "lcl/problems/mis.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"

namespace padlock {

DerandomizedResult solve_by_decomposition(const Graph& g,
                                          const Decomposition& decomp,
                                          const ClusterCompletion& complete,
                                          int init) {
  const std::size_t n = g.num_nodes();
  DerandomizedResult res;
  res.output = NodeMap<int>(n, init);
  res.colors_used = decomp.num_colors;
  if (n == 0) return res;

  // Group nodes into clusters keyed by (color, center).
  struct Cluster {
    int color = 0;
    std::vector<NodeId> nodes;
  };
  std::vector<Cluster> clusters;
  {
    // center -> cluster index for the current color sweep; rebuilt per
    // color so distinct-color clusters sharing a center stay separate.
    for (int c = 1; c <= decomp.num_colors; ++c) {
      NodeMap<int> slot(n, -1);
      for (NodeId v = 0; v < n; ++v) {
        if (decomp.color[v] != c) continue;
        const NodeId ctr = decomp.cluster[v];
        if (slot[ctr] == -1) {
          slot[ctr] = static_cast<int>(clusters.size());
          clusters.push_back(Cluster{c, {}});
        }
        clusters[static_cast<std::size_t>(slot[ctr])].nodes.push_back(v);
      }
    }
  }

  NodeMap<bool> fixed(n, false);
  int finish = 0;
  for (int c = 1; c <= decomp.num_colors; ++c) {
    // All color-c clusters complete in parallel; the LOCAL cost of the
    // round is 2 * (max radius of a color-c cluster) + 1 (gather the
    // cluster plus its fixed 1-hop boundary, then write back).
    int color_radius = 0;
    for (const Cluster& cl : clusters) {
      if (cl.color != c) continue;
      // Radius of the cluster around its center, measured in g.
      const NodeId center = decomp.cluster[cl.nodes[0]];
      color_radius =
          std::max(color_radius, cluster_radius(g, center, cl.nodes));
      complete(g, cl.nodes, fixed, res.output);
    }
    bool any = false;
    for (const Cluster& cl : clusters) {
      if (cl.color == c) {
        any = true;
        for (NodeId v : cl.nodes) fixed[v] = true;
      }
    }
    if (any) finish += 2 * color_radius + 1;
  }
  for (NodeId v = 0; v < n; ++v) PADLOCK_REQUIRE(fixed[v]);

  res.sweep_rounds = finish;
  res.rounds = decomp.rounds + finish;
  return res;
}

ClusterCompletion mis_completion(const IdMap& ids) {
  return [&ids](const Graph& g, const std::vector<NodeId>& cluster,
                const NodeMap<bool>& fixed, NodeMap<int>& out) {
    std::vector<NodeId> order = cluster;
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return ids[a] < ids[b]; });
    for (NodeId v : order) {
      bool blocked = false;
      for (int p = 0; p < g.degree(v) && !blocked; ++p) {
        const NodeId u = g.neighbor(v, p);
        // Loop-free required (as for Luby): a self-loop node may never
        // join the set yet must be dominated, which greedy order cannot
        // guarantee.
        PADLOCK_REQUIRE(u != v);
        if (out[u] == 1) blocked = true;
      }
      out[v] = blocked ? 2 : 1;
    }
    (void)fixed;
  };
}

ClusterCompletion coloring_completion(const IdMap& ids, int num_colors) {
  return [&ids, num_colors](const Graph& g,
                            const std::vector<NodeId>& cluster,
                            const NodeMap<bool>& fixed, NodeMap<int>& out) {
    std::vector<NodeId> order = cluster;
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return ids[a] < ids[b]; });
    for (NodeId v : order) {
      std::vector<bool> used(static_cast<std::size_t>(num_colors) + 1, false);
      for (int p = 0; p < g.degree(v); ++p) {
        const NodeId u = g.neighbor(v, p);
        if (u == v) continue;
        const int cu = out[u];
        if (cu >= 1 && cu <= num_colors) used[static_cast<std::size_t>(cu)] = true;
      }
      int pick = 0;
      for (int c = 1; c <= num_colors; ++c) {
        if (!used[static_cast<std::size_t>(c)]) {
          pick = c;
          break;
        }
      }
      PADLOCK_REQUIRE(pick != 0);  // degree < num_colors guarantees a free color
      out[v] = pick;
    }
    (void)fixed;
  };
}

DerandomizedResult derandomized_mis(const Graph& g, const IdMap& ids,
                                    std::uint64_t seed) {
  const Decomposition d = network_decomposition(g, ids, seed);
  return solve_by_decomposition(g, d, mis_completion(ids));
}

DerandomizedResult derandomized_coloring(const Graph& g, const IdMap& ids,
                                         std::uint64_t seed) {
  const Decomposition d = network_decomposition(g, ids, seed);
  return solve_by_decomposition(g, d, coloring_completion(ids, g.max_degree() + 1));
}


void register_derandomize_algos(AlgorithmRegistry& r) {
  // The sweep itself is deterministic, but the decomposition it consumes is
  // the randomized Linial-Saks construction, so the end-to-end pairs are
  // randomized (the open D(n) question of the paper's Discussion is exactly
  // whether a fast deterministic decomposition could replace it).
  r.register_algo({
      .name = "decomposition-sweep",
      .problem = "mis",
      .determinism = Determinism::kRandomized,
      .complexity = "O(log^2 n) whp (decomposition + color sweep)",
      .requires_text = "loop-free graphs",
      .precondition = graph_loop_free,
      .solve =
          [](const RunContext& ctx) {
            const auto res = derandomized_mis(ctx.graph, ctx.ids, ctx.seed);
            NodeMap<bool> in_set(ctx.graph, false);
            for (NodeId v = 0; v < ctx.graph.num_nodes(); ++v) {
              in_set[v] = res.output[v] == 1;
            }
            AlgoResult out{
                .output = mis_to_labeling(ctx.graph, in_set),
                .rounds = RoundReport::uniform(ctx.graph, res.rounds),
                .stats = {}};
            out.stats.set("sweep_rounds", res.sweep_rounds);
            out.stats.set("colors_used", res.colors_used);
            return out;
          },
  });
  r.register_algo({
      .name = "decomposition-sweep",
      .problem = "coloring",
      .determinism = Determinism::kRandomized,
      .complexity = "O(log^2 n) whp (decomposition + color sweep)",
      .requires_text = "loop-free graphs",
      .precondition = graph_loop_free,
      .solve =
          [](const RunContext& ctx) {
            const auto res =
                derandomized_coloring(ctx.graph, ctx.ids, ctx.seed);
            NodeMap<int> colors(ctx.graph, 0);
            for (NodeId v = 0; v < ctx.graph.num_nodes(); ++v) {
              colors[v] = res.output[v];
            }
            AlgoResult out{
                .output = colors_to_labeling(ctx.graph, colors),
                .rounds = RoundReport::uniform(ctx.graph, res.rounds),
                .stats = {}};
            out.stats.set("sweep_rounds", res.sweep_rounds);
            out.stats.set("colors_used", res.colors_used);
            return out;
          },
  });
}

}  // namespace padlock
