#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/padded_graph.hpp"
#include "gadget/gadget.hpp"
#include "graph/builders.hpp"
#include "io/dot.hpp"
#include "io/serialize.hpp"

namespace padlock {
namespace {

bool graphs_equal(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    if (a.endpoints(e) != b.endpoints(e)) return false;
  }
  return true;
}

// ---- graph round-trip --------------------------------------------------------

class GraphRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(GraphRoundTrip, PreservesTopology) {
  Graph g;
  switch (GetParam()) {
    case 0: g = build::cycle(17); break;
    case 1: g = build::path(1); break;
    case 2: g = build::random_regular(24, 3, 5); break;  // loops/parallels
    case 3: g = build::torus(4, 6); break;
    case 4: g = GraphBuilder().build(); break;
    default: {
      GraphBuilder b;
      b.add_nodes(3);
      b.add_edge(0, 0);
      b.add_edge(0, 1);
      b.add_edge(0, 1);
      g = std::move(b).build();
    }
  }
  std::stringstream ss;
  io::write_graph(ss, g);
  const Graph back = io::read_graph(ss);
  EXPECT_TRUE(graphs_equal(g, back));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GraphRoundTrip, ::testing::Range(0, 6));

TEST(Serialize, LabelingRoundTrip) {
  const Graph g = build::cycle(9);
  NeLabeling l(g);
  l.node[0] = 42;
  l.node[8] = -3;
  l.edge[2] = 7;
  l.half[HalfEdge{3, 0}] = 11;
  l.half[HalfEdge{3, 1}] = -11;
  std::stringstream ss;
  io::write_labeling(ss, l);
  const NeLabeling back = io::read_labeling(ss, g);
  EXPECT_EQ(l, back);
}

TEST(Serialize, EmptyLabelingRoundTrip) {
  const Graph g = build::path(4);
  const NeLabeling l(g);
  std::stringstream ss;
  io::write_labeling(ss, l);
  EXPECT_EQ(io::read_labeling(ss, g), l);
}

TEST(Serialize, PaddedInstanceRoundTrip) {
  const Graph base = build::cycle(5);
  NeLabeling base_input(base);
  base_input.node[1] = 99;
  const PaddedBuild pb = build_padded_instance(base, base_input, 2, 3);
  std::stringstream ss;
  io::write_padded_instance(ss, pb.instance);
  const PaddedInstance back = io::read_padded_instance(ss);

  EXPECT_TRUE(graphs_equal(pb.instance.graph, back.graph));
  EXPECT_EQ(pb.instance.gadget.delta, back.gadget.delta);
  EXPECT_EQ(pb.instance.gadget.index, back.gadget.index);
  EXPECT_EQ(pb.instance.gadget.port, back.gadget.port);
  EXPECT_EQ(pb.instance.gadget.center, back.gadget.center);
  EXPECT_EQ(pb.instance.gadget.half, back.gadget.half);
  EXPECT_EQ(pb.instance.gadget.vcolor, back.gadget.vcolor);
  EXPECT_EQ(pb.instance.port_edge, back.port_edge);
  EXPECT_EQ(pb.instance.pi_input, back.pi_input);
}

// CRLF tolerance: a file written on (or piped through) Windows carries \r\n
// line endings; the readers must parse it identically to the LF original.
TEST(Serialize, CrlfRoundTrip) {
  const auto to_crlf = [](const std::string& text) {
    std::string out;
    for (const char c : text) {
      if (c == '\n') out += '\r';
      out += c;
    }
    return out;
  };

  {
    const Graph g = build::random_regular(24, 3, 5);
    std::stringstream lf;
    io::write_graph(lf, g);
    std::stringstream crlf(to_crlf(lf.str()));
    EXPECT_TRUE(graphs_equal(g, io::read_graph(crlf)));
  }
  {
    const Graph g = build::cycle(9);
    NeLabeling l(g);
    l.node[0] = 42;
    l.edge[2] = 7;
    l.half[HalfEdge{3, 1}] = -11;
    std::stringstream lf;
    io::write_labeling(lf, l);
    std::stringstream crlf(to_crlf(lf.str()));
    EXPECT_EQ(io::read_labeling(crlf, g), l);
  }
  {
    const Graph base = build::cycle(5);
    const PaddedBuild pb =
        build_padded_instance(base, NeLabeling(base), 2, 3);
    std::stringstream lf;
    io::write_padded_instance(lf, pb.instance);
    // Trailing blanks ride along with the \r to cover the full rtrim path.
    std::stringstream crlf(to_crlf(lf.str()) + "  \r\n");
    const PaddedInstance back = io::read_padded_instance(crlf);
    EXPECT_TRUE(graphs_equal(pb.instance.graph, back.graph));
    EXPECT_EQ(pb.instance.pi_input, back.pi_input);
    EXPECT_EQ(pb.instance.port_edge, back.port_edge);
  }
}

TEST(Serialize, RejectsMalformedInput) {
  {
    std::stringstream ss("not a padlock file\n");
    EXPECT_THROW(io::read_graph(ss), std::runtime_error);
  }
  {
    std::stringstream ss("padlock-graph v1\nnodes 2\nedges 1\ne 0 5\n");
    EXPECT_THROW(io::read_graph(ss), std::runtime_error);  // endpoint range
  }
  {
    std::stringstream ss("padlock-graph v1\nnodes 2\nedges 2\ne 0 1\n");
    EXPECT_THROW(io::read_graph(ss), std::runtime_error);  // truncated
  }
  {
    const Graph g = build::path(3);
    std::stringstream ss("padlock-labeling v1\nnodes 9 edges 2\nend\n");
    EXPECT_THROW(io::read_labeling(ss, g), std::runtime_error);  // shape
  }
}

TEST(Serialize, RefusesOversizedHeaderCounts) {
  // A dumped instance whose nodes line was edited upward is refused before
  // anything is allocated, in a bare graph and inside a padded instance.
  {
    std::stringstream ss(
        "padlock-graph v1\nnodes 2000000000\nedges 1\ne 0 1\n");
    EXPECT_THROW(io::read_graph(ss), std::runtime_error);
  }
  {
    std::stringstream ss("padlock-graph v1\nnodes " +
                         std::to_string(io::kMaxGraphNodes + 1) +
                         "\nedges 0\n");
    EXPECT_THROW(io::read_graph(ss), std::runtime_error);
  }
  {
    std::stringstream ss(
        "padlock-padded v1\npadlock-graph v1\nnodes 2000000000\nedges 0\n"
        "delta 3\nend\n");
    EXPECT_THROW(io::read_padded_instance(ss), std::runtime_error);
  }
  // An edges count far beyond the lines that follow reserves nothing: it
  // is a truncated file, not an allocation failure.
  {
    std::stringstream ss(
        "padlock-graph v1\nnodes 2\nedges 4000000000000\ne 0 1\n");
    EXPECT_THROW(io::read_graph(ss), std::runtime_error);
  }
  // The cap itself is a count, not a ban: a small header still parses.
  {
    std::stringstream ss("padlock-graph v1\nnodes 3\nedges 1\ne 0 2\n");
    const Graph g = io::read_graph(ss);
    EXPECT_EQ(g.num_nodes(), 3u);
    EXPECT_EQ(g.num_edges(), 1u);
  }
}

// ---- DOT ----------------------------------------------------------------------

TEST(Dot, PlainGraphContainsAllEdges) {
  const Graph g = build::cycle(4);
  const std::string dot = io::dot_string(g);
  EXPECT_NE(dot.find("graph padlock {"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n3 -- n0"), std::string::npos);
}

TEST(Dot, StyleHooksApplied) {
  const Graph g = build::path(2);
  io::DotStyle style;
  style.directed = true;
  style.node_attrs = [](NodeId v) {
    return v == 0 ? std::string("color=red") : std::string();
  };
  style.edge_attrs = [](EdgeId) { return std::string("label=\"x\""); };
  const std::string dot = io::dot_string(g, style);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 [color=red]"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1 [label=\"x\"]"), std::string::npos);
}

TEST(Dot, GadgetRenderingMarksPortsAndCenter) {
  const GadgetInstance inst = build_gadget(3, 3);
  std::ostringstream os;
  io::write_gadget_dot(os, inst);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // center
  EXPECT_NE(dot.find("P1"), std::string::npos);
  EXPECT_NE(dot.find("P3"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // level edges
}

TEST(Dot, PaddedRenderingMarksPortEdges) {
  const Graph base = build::cycle(3);
  const PaddedBuild pb =
      build_padded_instance(base, NeLabeling(base), 2, 3);
  std::ostringstream os;
  io::write_padded_dot(os, pb.instance);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("color=red"), std::string::npos);   // PortEdge
  EXPECT_NE(dot.find("color=gray"), std::string::npos);  // GadEdge
}

}  // namespace
}  // namespace padlock
