#include "graph/graph.hpp"

#include <algorithm>
#include <limits>

namespace padlock {

GraphBuilder::GraphBuilder(std::size_t reserve_edges) {
  endpoints_.reserve(reserve_edges);
}

NodeId GraphBuilder::add_node() { return add_nodes(1); }

NodeId GraphBuilder::add_nodes(std::size_t count) {
  const auto first = static_cast<NodeId>(num_nodes_);
  num_nodes_ += count;
  return first;
}

EdgeId GraphBuilder::add_edge(NodeId u, NodeId v) {
  PADLOCK_REQUIRE(u < num_nodes_);
  PADLOCK_REQUIRE(v < num_nodes_);
  const auto e = static_cast<EdgeId>(endpoints_.size());
  endpoints_.emplace_back(u, v);
  return e;
}

Graph GraphBuilder::build() && {
  Graph g;
  const std::size_t n = num_nodes_;
  // Counting sort of the 2m half-edges by owning node: degrees, prefix sum,
  // then one fill in edge order, which is exactly the per-node insertion
  // order (a self-loop's side 0 lands right before its side 1).
  std::vector<std::size_t> first_port(n + 1, 0);
  for (const auto& [u, v] : endpoints_) {
    ++first_port[u + 1];
    ++first_port[v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    g.max_degree_ =
        std::max(g.max_degree_, static_cast<int>(first_port[v + 1]));
    first_port[v + 1] += first_port[v];
  }
  std::vector<std::size_t> cursor(first_port.begin(), first_port.end() - 1);
  std::vector<HalfEdge> ports(2 * endpoints_.size());
  std::vector<std::pair<int, int>> side_port(endpoints_.size());
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    const auto [u, v] = endpoints_[e];
    const std::size_t pu = cursor[u]++;
    ports[pu] = HalfEdge{static_cast<EdgeId>(e), 0};
    const std::size_t pv = cursor[v]++;
    ports[pv] = HalfEdge{static_cast<EdgeId>(e), 1};
    side_port[e] = {static_cast<int>(pu - first_port[u]),
                    static_cast<int>(pv - first_port[v])};
  }
  g.first_port_ = std::move(first_port);
  g.ports_ = std::move(ports);
  g.endpoints_ = std::move(endpoints_);
  g.side_port_ = std::move(side_port);
  g.finalize();
  return g;
}

Graph Graph::adopt(Slab<std::size_t> first_port, Slab<HalfEdge> ports,
                   Slab<std::pair<NodeId, NodeId>> endpoints,
                   Slab<std::pair<int, int>> side_port, int max_degree) {
  PADLOCK_REQUIRE(!first_port.empty());
  PADLOCK_REQUIRE(first_port[0] == 0);
  PADLOCK_REQUIRE(first_port[first_port.size() - 1] == ports.size());
  PADLOCK_REQUIRE(ports.size() == 2 * endpoints.size());
  PADLOCK_REQUIRE(side_port.size() == endpoints.size());
  Graph g;
  g.first_port_ = std::move(first_port);
  g.ports_ = std::move(ports);
  g.endpoints_ = std::move(endpoints);
  g.side_port_ = std::move(side_port);
  g.max_degree_ = max_degree;
  g.finalize();
  return g;
}

void Graph::finalize() {
  const std::size_t slots = ports_.size();
  PADLOCK_REQUIRE(slots <= std::numeric_limits<std::uint32_t>::max());
  peer_port_.resize(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    const HalfEdge o = opposite(ports_[i]);
    const NodeId w = endpoint(o.edge, o.side);
    peer_port_[i] = static_cast<std::uint32_t>(
        first_port_[w] + static_cast<std::size_t>(port_of(o)));
  }
  loop_free_ = std::none_of(
      endpoints_.data(), endpoints_.data() + endpoints_.size(),
      [](const std::pair<NodeId, NodeId>& uv) { return uv.first == uv.second; });
}

}  // namespace padlock
