#include "lcl/problems/edge_coloring.hpp"

#include "support/check.hpp"

namespace padlock {

EdgeColoring::EdgeColoring(int num_colors) : k_(num_colors) {
  PADLOCK_REQUIRE(num_colors >= 1);
}

std::string EdgeColoring::name() const {
  return "edge-coloring-" + std::to_string(k_);
}

bool EdgeColoring::node_ok(const NodeEnv& env) const {
  for (int p = 0; p < env.degree; ++p) {
    const Label c = env.edge_out[static_cast<std::size_t>(p)];
    if (c < 1 || c > k_) return false;
    for (int q = p + 1; q < env.degree; ++q) {
      if (env.edge_out[static_cast<std::size_t>(q)] == c) return false;
    }
  }
  return true;
}

bool EdgeColoring::edge_ok(const EdgeEnv& env) const {
  // A self-loop appears twice among its node's incident edges, so node_ok
  // already rejects it; C_E re-checks the color range and the loop case.
  if (env.self_loop) return false;
  return env.edge_out >= 1 && env.edge_out <= k_;
}

NeLabeling edge_colors_to_labeling(const Graph& g, const EdgeMap<int>& colors) {
  NeLabeling out(g);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    out.edge[e] = colors[e];
  }
  return out;
}

bool is_proper_edge_coloring(const Graph& g, const EdgeMap<int>& colors,
                             int k) {
  if (!g.loop_free()) return false;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (colors[e] < 1 || colors[e] > k) return false;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int p = 0; p < g.degree(v); ++p) {
      for (int q = p + 1; q < g.degree(v); ++q) {
        if (colors[g.incidence(v, p).edge] == colors[g.incidence(v, q).edge]) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace padlock
