#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "support/rng.hpp"

namespace padlock {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g = GraphBuilder().build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Graph, SingleEdge) {
  GraphBuilder b;
  const NodeId u = b.add_node();
  const NodeId v = b.add_node();
  const EdgeId e = b.add_edge(u, v);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(u), 1);
  EXPECT_EQ(g.degree(v), 1);
  EXPECT_EQ(g.endpoint(e, 0), u);
  EXPECT_EQ(g.endpoint(e, 1), v);
  EXPECT_EQ(g.neighbor(u, 0), v);
  EXPECT_EQ(g.neighbor(v, 0), u);
  EXPECT_FALSE(g.is_self_loop(e));
}

TEST(Graph, PortOrderFollowsInsertion) {
  GraphBuilder b;
  b.add_nodes(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.neighbor(0, 0), 1u);
  EXPECT_EQ(g.neighbor(0, 1), 2u);
  EXPECT_EQ(g.neighbor(0, 2), 3u);
}

TEST(Graph, SelfLoopUsesTwoPorts) {
  GraphBuilder b;
  const NodeId v = b.add_node();
  const EdgeId e = b.add_edge(v, v);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(g.is_self_loop(e));
  EXPECT_EQ(g.neighbor(v, 0), v);
  EXPECT_EQ(g.neighbor(v, 1), v);
  EXPECT_EQ(g.port_of(HalfEdge{e, 0}), 0);
  EXPECT_EQ(g.port_of(HalfEdge{e, 1}), 1);
}

TEST(Graph, LoopFreedomIsComputedAtAssemblyAndCopied) {
  EXPECT_TRUE(Graph().loop_free());
  EXPECT_TRUE(GraphBuilder().build().loop_free());

  GraphBuilder b;
  b.add_nodes(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(1, 2);  // parallel edges are not loops
  const Graph simple = std::move(b).build();
  EXPECT_TRUE(simple.loop_free());

  GraphBuilder c;
  c.add_nodes(4);
  c.add_edge(0, 1);
  c.add_edge(1, 2);
  c.add_edge(3, 3);  // the one self-loop
  c.add_edge(2, 3);
  const Graph looped = std::move(c).build();
  EXPECT_FALSE(looped.loop_free());
  const Graph copy = looped;
  EXPECT_FALSE(copy.loop_free());
}

TEST(Graph, ParallelEdgesDistinct) {
  GraphBuilder b;
  b.add_nodes(2);
  const EdgeId e1 = b.add_edge(0, 1);
  const EdgeId e2 = b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EXPECT_NE(e1, e2);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.incidence(0, 0).edge, e1);
  EXPECT_EQ(g.incidence(0, 1).edge, e2);
}

TEST(Graph, PortOfRoundTrips) {
  GraphBuilder b;
  b.add_nodes(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  Graph g = std::move(b).build();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int p = 0; p < g.degree(v); ++p) {
      const HalfEdge h = g.incidence(v, p);
      EXPECT_EQ(g.node_at(h), v);
      EXPECT_EQ(g.port_of(h), p);
    }
  }
}

TEST(Graph, OppositeHalf) {
  const HalfEdge h{5, 0};
  EXPECT_EQ(Graph::opposite(h).side, 1);
  EXPECT_EQ(Graph::opposite(h).edge, 5u);
  EXPECT_EQ(Graph::opposite(Graph::opposite(h)), h);
}

TEST(Graph, MaxDegree) {
  GraphBuilder b;
  b.add_nodes(5);
  for (NodeId v = 1; v < 5; ++v) b.add_edge(0, v);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.max_degree(), 4);
}

TEST(Graph, IncidentListsAllHalfEdges) {
  GraphBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  b.add_edge(0, 0);
  Graph g = std::move(b).build();
  const PortRange inc = g.incident(0);
  EXPECT_EQ(inc.size(), 3u);
  EXPECT_FALSE(inc.empty());
  // The view is the CSR slab itself, in port order: iteration, indexing,
  // and incidence() must agree.
  int port = 0;
  for (const HalfEdge h : inc) {
    EXPECT_EQ(h, g.incidence(0, port));
    EXPECT_EQ(h, inc[static_cast<std::size_t>(port)]);
    ++port;
  }
  EXPECT_EQ(port, g.degree(0));
  EXPECT_TRUE(g.incident(1).size() == 1 && g.incident(1)[0].side == 1);
}

// GraphBuilder oracle: the port layout written the naive way, one vector
// per node that each add_edge appends to (a self-loop appends side 0, then
// side 1). build() must produce exactly these port lists, and side_port,
// peer_port and max_degree must agree with them.
class NaiveBuilder {
 public:
  NodeId add_node() {
    ports_.emplace_back();
    return static_cast<NodeId>(ports_.size() - 1);
  }
  EdgeId add_edge(NodeId u, NodeId v) {
    const auto e = static_cast<EdgeId>(edges_++);
    ports_[u].push_back(HalfEdge{e, 0});
    ports_[v].push_back(HalfEdge{e, 1});
    return e;
  }
  const std::vector<std::vector<HalfEdge>>& ports() const { return ports_; }
  std::size_t num_edges() const { return edges_; }

 private:
  std::vector<std::vector<HalfEdge>> ports_;
  std::size_t edges_ = 0;
};

void expect_matches_naive(const Graph& g, const NaiveBuilder& ref) {
  const auto& ports = ref.ports();
  ASSERT_EQ(g.num_nodes(), ports.size());
  ASSERT_EQ(g.num_edges(), ref.num_edges());
  int max_degree = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int deg = static_cast<int>(ports[v].size());
    max_degree = std::max(max_degree, deg);
    ASSERT_EQ(g.degree(v), deg) << "node " << v;
    for (int p = 0; p < deg; ++p) {
      const HalfEdge h = g.incidence(v, p);
      EXPECT_EQ(h, ports[v][static_cast<std::size_t>(p)])
          << "node " << v << " port " << p;
      EXPECT_EQ(g.node_at(h), v);
      EXPECT_EQ(g.port_of(h), p);
      const HalfEdge o = Graph::opposite(h);
      EXPECT_EQ(g.peer_port()[g.port_offset(v) + static_cast<std::size_t>(p)],
                g.port_offset(g.node_at(o)) +
                    static_cast<std::size_t>(g.port_of(o)));
    }
  }
  EXPECT_EQ(g.max_degree(), max_degree);
}

TEST(GraphBuilderOracle, RandomMultigraphsMatchPerNodeVectors) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Rng rng(seed);
    GraphBuilder b;
    NaiveBuilder ref;
    // Nodes arrive between edges, some nodes stay isolated, and the small
    // node count forces self-loops and parallel edges.
    for (int step = 0; step < 400; ++step) {
      if (ref.ports().size() < 2 || rng.below(8) == 0) {
        EXPECT_EQ(b.add_node(), ref.add_node());
        continue;
      }
      const auto n = ref.ports().size();
      const auto u = static_cast<NodeId>(rng.below(n));
      const auto v = rng.below(5) == 0 ? u : static_cast<NodeId>(rng.below(n));
      EXPECT_EQ(b.add_edge(u, v), ref.add_edge(u, v));
    }
    EXPECT_EQ(b.num_nodes(), ref.ports().size());
    EXPECT_EQ(b.num_edges(), ref.num_edges());
    expect_matches_naive(std::move(b).build(), ref);
  }
}

TEST(GraphBuilderOracle, SelfLoopsTakeConsecutivePortsSideZeroFirst) {
  GraphBuilder b;
  NaiveBuilder ref;
  for (int i = 0; i < 3; ++i) {
    b.add_node();
    ref.add_node();
  }
  for (const auto [u, v] : {std::pair{0u, 1u}, std::pair{1u, 1u},
                            std::pair{1u, 0u}, std::pair{1u, 1u},
                            std::pair{0u, 1u}}) {
    b.add_edge(u, v);
    ref.add_edge(u, v);
  }
  const Graph g = std::move(b).build();
  expect_matches_naive(g, ref);
  EXPECT_EQ(g.degree(1), 7);
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_EQ(g.port_of(HalfEdge{1, 0}) + 1, g.port_of(HalfEdge{1, 1}));
}

TEST(GraphBuilderOracle, EdgelessGraphs) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
    GraphBuilder b;
    NaiveBuilder ref;
    b.add_nodes(n);
    for (std::size_t i = 0; i < n; ++i) ref.add_node();
    const Graph g = std::move(b).build();
    expect_matches_naive(g, ref);
    EXPECT_EQ(g.max_degree(), 0);
  }
}

TEST(Labels, NodeMapIndexing) {
  GraphBuilder b;
  b.add_nodes(3);
  Graph g = std::move(b).build();
  NodeMap<int> m(g, 7);
  EXPECT_EQ(m[2], 7);
  m[2] = 9;
  EXPECT_EQ(m[2], 9);
  EXPECT_EQ(m.size(), 3u);
}

TEST(Labels, HalfEdgeMapDistinguishesSides) {
  GraphBuilder b;
  b.add_nodes(2);
  const EdgeId e = b.add_edge(0, 1);
  Graph g = std::move(b).build();
  HalfEdgeMap<int> m(g, 0);
  (m[HalfEdge{e, 0}]) = 1;
  (m[HalfEdge{e, 1}]) = 2;
  EXPECT_EQ((m[HalfEdge{e, 0}]), 1);
  EXPECT_EQ((m[HalfEdge{e, 1}]), 2);
}

TEST(Labels, EqualityComparison) {
  GraphBuilder b;
  b.add_nodes(2);
  Graph g = std::move(b).build();
  NodeMap<int> a(g, 0), c(g, 0);
  EXPECT_EQ(a, c);
  c[0] = 1;
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace padlock
