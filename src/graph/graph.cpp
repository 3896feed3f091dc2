#include "graph/graph.hpp"

#include <algorithm>
#include <limits>

#include "graph/partition.hpp"

namespace padlock {

GraphBuilder::GraphBuilder(std::size_t reserve_nodes) {
  node_ports_.reserve(reserve_nodes);
}

NodeId GraphBuilder::add_node() {
  node_ports_.emplace_back();
  return static_cast<NodeId>(node_ports_.size() - 1);
}

NodeId GraphBuilder::add_nodes(std::size_t count) {
  const auto first = static_cast<NodeId>(node_ports_.size());
  node_ports_.resize(node_ports_.size() + count);
  return first;
}

EdgeId GraphBuilder::add_edge(NodeId u, NodeId v) {
  PADLOCK_REQUIRE(u < node_ports_.size());
  PADLOCK_REQUIRE(v < node_ports_.size());
  const auto e = static_cast<EdgeId>(endpoints_.size());
  endpoints_.emplace_back(u, v);
  node_ports_[u].push_back(HalfEdge{e, 0});
  node_ports_[v].push_back(HalfEdge{e, 1});
  return e;
}

Graph GraphBuilder::build() && {
  Graph g;
  std::vector<std::size_t> first_port(node_ports_.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t v = 0; v < node_ports_.size(); ++v) {
    first_port[v] = total;
    total += node_ports_[v].size();
    g.max_degree_ =
        std::max(g.max_degree_, static_cast<int>(node_ports_[v].size()));
  }
  first_port[node_ports_.size()] = total;
  std::vector<HalfEdge> ports;
  ports.reserve(total);
  std::vector<std::pair<int, int>> side_port(endpoints_.size(), {-1, -1});
  for (std::size_t v = 0; v < node_ports_.size(); ++v) {
    for (std::size_t p = 0; p < node_ports_[v].size(); ++p) {
      const HalfEdge h = node_ports_[v][p];
      ports.push_back(h);
      auto& sp = side_port[h.edge];
      (h.side == 0 ? sp.first : sp.second) = static_cast<int>(p);
    }
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
  // Assembly is the one single-threaded moment of a graph's life, so the
  // partition memo is created here (lazily creating it from the const
  // partition() accessor would race concurrent sweep rows).
  partitions_ = std::make_shared<PartitionStore>();
}

}  // namespace padlock
