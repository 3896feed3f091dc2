#include <gtest/gtest.h>

#include "algo/color_reduce.hpp"
#include "algo/dist_coloring.hpp"
#include "graph/builders.hpp"
#include "graph/metrics.hpp"
#include "graph/power_graph.hpp"

namespace padlock {
namespace {

// ---- power graph --------------------------------------------------------------

TEST(PowerGraph, SquareOfPath) {
  const Graph g = build::path(5);
  const PowerGraph p2 = power_graph(g, 2);
  // Pairs at distance <= 2 on a 5-path: 4 + 3 = 7.
  EXPECT_EQ(p2.graph.num_edges(), 7u);
  EXPECT_EQ(p2.graph.num_nodes(), 5u);
}

TEST(PowerGraph, FirstPowerCollapsesMultiEdges) {
  GraphBuilder b;
  b.add_nodes(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);  // parallel
  b.add_edge(1, 1);  // loop
  b.add_edge(1, 2);
  const Graph g = std::move(b).build();
  const PowerGraph p1 = power_graph(g, 1);
  EXPECT_EQ(p1.graph.num_edges(), 2u);  // {0,1}, {1,2}
}

TEST(PowerGraph, LargePowerReachesComponentClique) {
  const Graph g = build::cycle(7);
  const PowerGraph p = power_graph(g, 6);
  EXPECT_EQ(p.graph.num_edges(), 7u * 6 / 2);  // K7
}

TEST(PowerGraph, DisconnectedComponentsStaySeparate) {
  GraphBuilder b;
  b.add_nodes(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = std::move(b).build();
  const PowerGraph p = power_graph(g, 3);
  EXPECT_EQ(p.graph.num_edges(), 2u);
}

TEST(PowerGraph, DistancesAgree) {
  const Graph g = build::random_regular_simple(40, 3, 8);
  const PowerGraph p3 = power_graph(g, 3);
  const NodeMap<int> d = bfs_distances(g, 0);
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    bool adjacent = false;
    for (int q = 0; q < p3.graph.degree(0); ++q) {
      if (p3.graph.neighbor(0, q) == v) adjacent = true;
    }
    EXPECT_EQ(adjacent, d[v] != kUnreachable && d[v] <= 3) << "v=" << v;
  }
}

// ---- distance-k coloring ---------------------------------------------------------

class DistColorTest : public ::testing::TestWithParam<int> {};

TEST_P(DistColorTest, ProperAtDistanceK) {
  const int k = GetParam();
  for (const std::uint64_t seed : {3ull, 4ull}) {
    const Graph g = build::random_regular_simple(60, 3, seed);
    const IdMap ids = shuffled_ids(g, seed);
    const auto res = distance_k_coloring(g, ids, g.num_nodes(), k);
    EXPECT_TRUE(is_distance_coloring(g, res.colors, k)) << "k=" << k;
    EXPECT_GT(res.rounds, 0);
    // k-hop simulation: base rounds are a multiple of k.
    EXPECT_EQ(res.rounds % k, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(K, DistColorTest, ::testing::Values(1, 2, 3, 4));

TEST(DistColoring, MatchesGadgetInputRequirements) {
  // The §4.6 refinement needs a distance-2 coloring; the distributed one
  // must satisfy the same predicate as the centralized generator.
  const Graph g = build::torus(6, 8);
  const IdMap ids = shuffled_ids(g, 12);
  const auto dist = distance_k_coloring(g, ids, g.num_nodes(), 2);
  EXPECT_TRUE(is_distance_coloring(g, dist.colors, 2));
}

// ---- (alpha, beta) ruling sets ----------------------------------------------------

class AlphaRulingTest : public ::testing::TestWithParam<int> {};

TEST_P(AlphaRulingTest, IndependentAtAlphaAndDominating) {
  const int alpha = GetParam();
  const Graph g = build::random_regular_simple(80, 3, 21);
  const IdMap ids = shuffled_ids(g, 5);
  const auto r = ruling_set_power(g, ids, g.num_nodes(), alpha);
  EXPECT_TRUE(ruling_set_independent(g, r.in_set, alpha)) << alpha;
  ASSERT_NE(r.domination_radius, kUnreachable);
  int bits = 0;
  for (std::size_t x = g.num_nodes(); x > 0; x >>= 1) ++bits;
  EXPECT_LE(r.domination_radius, (alpha - 1) * 2 * bits) << alpha;
}

INSTANTIATE_TEST_SUITE_P(Alpha, AlphaRulingTest, ::testing::Values(2, 3, 4, 5));

TEST(AlphaRuling, CycleSanity) {
  const Graph g = build::cycle(30);
  const auto r = ruling_set_power(g, sequential_ids(g), 30, 3);
  EXPECT_TRUE(ruling_set_independent(g, r.in_set, 3));
  std::size_t size = 0;
  for (const bool b : r.in_set) size += b ? 1 : 0;
  EXPECT_GE(size, 1u);
  EXPECT_LE(size, 10u);  // at most n / alpha on a cycle
}

}  // namespace
}  // namespace padlock
