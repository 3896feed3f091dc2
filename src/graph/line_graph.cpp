#include "graph/line_graph.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"

namespace padlock {

LineGraph line_graph(const Graph& g) {
  const std::size_t m = g.num_edges();
  PADLOCK_REQUIRE(g.loop_free());

  GraphBuilder b(m);
  b.add_nodes(m);
  std::vector<NodeId> shared;

  // For each G-node, connect all pairs of incident edges. Each unordered
  // pair of distinct incident edges contributes exactly one L(G)-edge per
  // shared endpoint (parallel G-edges share two endpoints and hence get two
  // L(G)-edges).
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int deg = g.degree(v);
    for (int p = 0; p < deg; ++p) {
      const EdgeId e1 = g.incidence(v, p).edge;
      for (int q = p + 1; q < deg; ++q) {
        const EdgeId e2 = g.incidence(v, q).edge;
        b.add_edge(static_cast<NodeId>(e1), static_cast<NodeId>(e2));
        shared.push_back(v);
      }
    }
  }

  LineGraph lg;
  lg.graph = std::move(b).build();
  lg.shared_endpoint = EdgeMap<NodeId>(lg.graph, kNoNode);
  for (EdgeId le = 0; le < lg.graph.num_edges(); ++le) {
    lg.shared_endpoint[le] = shared[le];
  }
  return lg;
}

NodeMap<std::uint64_t> line_graph_ids(const Graph& g,
                                      const NodeMap<std::uint64_t>& ids) {
  const std::uint64_t stride = static_cast<std::uint64_t>(g.max_degree()) + 1;
  NodeMap<std::uint64_t> out(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const NodeId anchor = ids[u] <= ids[v] ? u : v;
    const int side = anchor == u ? 0 : 1;
    const int port = g.port_of(HalfEdge{e, side});
    out[static_cast<NodeId>(e)] =
        ids[anchor] * stride + static_cast<std::uint64_t>(port) + 1;
  }
  return out;
}

std::uint64_t line_graph_id_space(std::uint64_t id_space, int max_degree) {
  return id_space * (static_cast<std::uint64_t>(max_degree) + 1) +
         static_cast<std::uint64_t>(max_degree) + 1;
}

}  // namespace padlock
