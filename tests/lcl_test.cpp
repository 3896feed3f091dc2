#include <gtest/gtest.h>

#include "graph/builders.hpp"
#include "lcl/checker.hpp"
#include "lcl/problems/coloring.hpp"
#include "lcl/problems/matching.hpp"
#include "lcl/problems/mis.hpp"
#include "lcl/problems/sinkless_orientation.hpp"
#include "support/thread_pool.hpp"

namespace padlock {
namespace {

// ---- Sinkless orientation --------------------------------------------------

TEST(SinklessLcl, OrientedCycleIsValid) {
  Graph g = build::cycle(5);
  Orientation tails(g, 0);  // every edge i -> i+1: all tails side 0
  EXPECT_TRUE(is_sinkless(g, tails));
}

TEST(SinklessLcl, DegreeTwoNodesAreExempt) {
  Graph g = build::path(4);
  Orientation tails(g, 0);
  // All edges oriented toward node 3; nodes have degree <= 2, so no
  // constraint applies even though node 3 is a sink.
  EXPECT_TRUE(is_sinkless(g, tails));
}

TEST(SinklessLcl, SinkIsDetected) {
  // K4: node 3 with all incident edges oriented inward is a sink.
  GraphBuilder b;
  b.add_nodes(4);
  EdgeId e01 = b.add_edge(0, 1), e02 = b.add_edge(0, 2), e03 = b.add_edge(0, 3);
  EdgeId e12 = b.add_edge(1, 2), e13 = b.add_edge(1, 3), e23 = b.add_edge(2, 3);
  Graph g = std::move(b).build();
  Orientation tails(g, 0);
  tails[e01] = 0;
  tails[e02] = 0;
  tails[e03] = 0;  // 0 -> 3
  tails[e12] = 0;
  tails[e13] = 0;  // 1 -> 3
  tails[e23] = 0;  // 2 -> 3
  EXPECT_FALSE(is_sinkless(g, tails));
  tails[e23] = 1;  // 3 -> 2 rescues node 3 but now check node 2: 2 has out 0->2? no
  // node 2 outputs: e02 in (0->2), e12 in (1->2), e23 in (3->2): sink!
  EXPECT_FALSE(is_sinkless(g, tails));
  tails[e12] = 1;  // 2 -> 1
  EXPECT_TRUE(is_sinkless(g, tails));
}

TEST(SinklessLcl, SelfLoopSatisfiesItsNode) {
  GraphBuilder b;
  b.add_nodes(1);
  b.add_edge(0, 0);
  b.add_edge(0, 0);  // degree 4 node, loops only
  Graph g = std::move(b).build();
  Orientation tails(g, 0);
  EXPECT_TRUE(is_sinkless(g, tails));
}

TEST(SinklessLcl, MalformedHalfLabelRejected) {
  Graph g = build::cycle(4);
  const SinklessOrientation lcl;
  NeLabeling input(g), output(g);
  // all-empty labels violate the edge constraint everywhere
  const auto res = check_ne_lcl(g, lcl, input, output);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.violations.empty());
}

TEST(SinklessLcl, LabelingRoundTrip) {
  Graph g = build::cycle(7);
  Orientation tails(g, 0);
  tails[3] = 1;
  const auto lab = orientation_to_labeling(g, tails);
  EXPECT_EQ(labeling_to_orientation(g, lab), tails);
}

TEST(SinklessLcl, ViolationSitesReported) {
  GraphBuilder b;
  b.add_nodes(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  Graph g = std::move(b).build();
  // Node 0 has degree 3, all edges inward -> node violation at 0.
  Orientation tails(g, 1);
  const SinklessOrientation lcl;
  const NeLabeling input(g);
  const auto res =
      check_ne_lcl(g, lcl, input, orientation_to_labeling(g, tails));
  ASSERT_FALSE(res.ok);
  ASSERT_EQ(res.violations.size(), 1u);
  EXPECT_EQ(res.violations[0].site, Violation::Site::kNode);
  EXPECT_EQ(res.violations[0].node, 0u);
}

// ---- Coloring ---------------------------------------------------------------

TEST(ColoringLcl, ProperAccepted) {
  Graph g = build::cycle(6);
  NodeMap<int> colors(g, 0);
  for (NodeId v = 0; v < 6; ++v) colors[v] = 1 + static_cast<int>(v % 2);
  EXPECT_TRUE(is_proper_coloring(g, colors, 2));
}

TEST(ColoringLcl, MonochromaticEdgeRejected) {
  Graph g = build::cycle(5);  // odd cycle has no 2-coloring
  NodeMap<int> colors(g, 0);
  for (NodeId v = 0; v < 5; ++v) colors[v] = 1 + static_cast<int>(v % 2);
  EXPECT_FALSE(is_proper_coloring(g, colors, 2));
}

TEST(ColoringLcl, OutOfRangeColorRejected) {
  Graph g = build::cycle(4);
  NodeMap<int> colors(g, 0);
  for (NodeId v = 0; v < 4; ++v) colors[v] = 1 + static_cast<int>(v % 2);
  EXPECT_TRUE(is_proper_coloring(g, colors, 2));
  colors[0] = 5;
  EXPECT_FALSE(is_proper_coloring(g, colors, 2));
  colors[0] = 0;
  EXPECT_FALSE(is_proper_coloring(g, colors, 2));
}

TEST(ColoringLcl, SelfLoopNeverProper) {
  GraphBuilder b;
  b.add_nodes(1);
  b.add_edge(0, 0);
  Graph g = std::move(b).build();
  NodeMap<int> colors(g, 1);
  EXPECT_FALSE(is_proper_coloring(g, colors, 3));
}

// ---- Maximal matching -------------------------------------------------------

TEST(MatchingLcl, PerfectMatchingOnEvenCycle) {
  Graph g = build::cycle(6);
  EdgeMap<bool> m(g, false);
  m[0] = m[2] = m[4] = true;
  EXPECT_TRUE(is_maximal_matching(g, m));
}

TEST(MatchingLcl, NonMaximalRejected) {
  Graph g = build::cycle(6);
  EdgeMap<bool> m(g, false);
  m[0] = true;  // edge {3,4} has both endpoints free
  EXPECT_FALSE(is_maximal_matching(g, m));
}

TEST(MatchingLcl, OverlappingEdgesRejected) {
  Graph g = build::cycle(6);
  EdgeMap<bool> m(g, false);
  m[0] = m[1] = true;  // share node 1
  EXPECT_FALSE(is_maximal_matching(g, m));
}

TEST(MatchingLcl, EmptyMatchingOnEdgelessGraph) {
  GraphBuilder b;
  b.add_nodes(3);
  Graph g = std::move(b).build();
  EdgeMap<bool> m(g, false);
  EXPECT_TRUE(is_maximal_matching(g, m));
}

TEST(MatchingLcl, SelfLoopCannotBeMatched) {
  GraphBuilder b;
  b.add_nodes(2);
  const EdgeId loop = b.add_edge(0, 0);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EdgeMap<bool> m(g, false);
  m[loop] = true;
  EXPECT_FALSE(is_maximal_matching(g, m));
  EdgeMap<bool> m2(g, false);
  m2[1] = true;  // the {0,1} edge
  EXPECT_TRUE(is_maximal_matching(g, m2));
}

TEST(MatchingLcl, ParallelEdgesOneMatched) {
  GraphBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EdgeMap<bool> m(g, false);
  m[0] = true;
  EXPECT_TRUE(is_maximal_matching(g, m));
  m[1] = true;  // both parallels matched: node constraint violated
  EXPECT_FALSE(is_maximal_matching(g, m));
}

// ---- MIS --------------------------------------------------------------------

TEST(MisLcl, AlternatingSetOnEvenCycle) {
  Graph g = build::cycle(6);
  NodeMap<bool> s(g, false);
  s[0] = s[2] = s[4] = true;
  EXPECT_TRUE(is_mis(g, s));
}

TEST(MisLcl, AdjacentMembersRejected) {
  Graph g = build::cycle(6);
  NodeMap<bool> s(g, false);
  s[0] = s[1] = true;
  s[3] = true;
  EXPECT_FALSE(is_mis(g, s));
}

TEST(MisLcl, UndominatedNodeRejected) {
  Graph g = build::cycle(6);
  NodeMap<bool> s(g, false);
  s[0] = true;  // node 3 has no neighbor in the set
  EXPECT_FALSE(is_mis(g, s));
}

TEST(MisLcl, IsolatedNodeMustJoin) {
  GraphBuilder b;
  b.add_nodes(1);
  Graph g = std::move(b).build();
  NodeMap<bool> out_set(g, false);
  EXPECT_FALSE(is_mis(g, out_set));
  NodeMap<bool> in_set(g, true);
  EXPECT_TRUE(is_mis(g, in_set));
}

TEST(MisLcl, EmptyGraphTrivial) {
  Graph g = GraphBuilder().build();
  NodeMap<bool> s(g, false);
  EXPECT_TRUE(is_mis(g, s));
}

// ---- Checker internals ------------------------------------------------------

TEST(Checker, EnvExposesPortOrder) {
  GraphBuilder b;
  b.add_nodes(3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  Graph g = std::move(b).build();
  NeLabeling input(g), output(g);
  output.edge[0] = 10;
  output.edge[1] = 20;
  NodeEnvStorage storage;
  fill_node_env(g, 0, input, output, storage);
  EXPECT_EQ(storage.env.degree, 2);
  EXPECT_EQ(storage.env.edge_out[0], 10);
  EXPECT_EQ(storage.env.edge_out[1], 20);
}

TEST(Checker, EdgeEnvSidesMatchEndpoints) {
  GraphBuilder b;
  b.add_nodes(2);
  const EdgeId e = b.add_edge(0, 1);
  Graph g = std::move(b).build();
  NeLabeling input(g), output(g);
  output.node[0] = 7;
  output.node[1] = 8;
  output.half[HalfEdge{e, 0}] = 70;
  output.half[HalfEdge{e, 1}] = 80;
  const auto env = make_edge_env(g, e, input, output);
  EXPECT_EQ(env.node_out[0], 7);
  EXPECT_EQ(env.node_out[1], 8);
  EXPECT_EQ(env.half_out[0], 70);
  EXPECT_EQ(env.half_out[1], 80);
  EXPECT_FALSE(env.self_loop);
}

TEST(Checker, ViolationCapRespected) {
  Graph g = build::cycle(50);
  const SinklessOrientation lcl;
  NeLabeling input(g), output(g);  // everything malformed
  const auto res = check_ne_lcl(g, lcl, input, output, 5);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.violations.size(), 5u);
}

TEST(Checker, TruncationIsExplicit) {
  // Every node and edge of the all-empty labeling violates sinkless
  // orientation: 50 node sites + 50 edge sites.
  Graph g = build::cycle(50);
  const SinklessOrientation lcl;
  NeLabeling input(g), output(g);
  const auto capped = check_ne_lcl(g, lcl, input, output, 5);
  EXPECT_TRUE(capped.truncated);
  EXPECT_EQ(capped.total_violations, 100u);
  EXPECT_EQ(capped.violations.size(), 5u);

  // A cap that fits everything must not be flagged.
  const auto full = check_ne_lcl(g, lcl, input, output, 200);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.total_violations, 100u);
  EXPECT_EQ(full.violations.size(), 100u);
}

// ---- the pooled site scan (scan_sites) -------------------------------------

// Restores exec_context() so the threads knob cannot leak into the other
// checker tests.
class CheckerScanMode : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = exec_context(); }
  void TearDown() override { exec_context() = saved_; }

 private:
  ExecContext saved_;
};

TEST_F(CheckerScanMode, DeterministicCountStaysExactUnderThreads) {
  Graph g = build::cycle(4096);
  const SinklessOrientation lcl;
  NeLabeling input(g), output(g);
  for (const int threads : {1, 4}) {
    exec_context().threads = threads;
    const auto res = check_ne_lcl(g, lcl, input, output, 4);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.total_violations, 8192u) << "threads=" << threads;
    EXPECT_EQ(res.violations.size(), 4u);
    EXPECT_TRUE(res.truncated);  // capped list, exact count
  }
}

}  // namespace
}  // namespace padlock
