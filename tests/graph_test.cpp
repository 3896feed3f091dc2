#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "graph/labels.hpp"

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
