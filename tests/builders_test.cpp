#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/cole_vishkin.hpp"
#include "graph/builders.hpp"
#include "graph/metrics.hpp"

namespace padlock {
namespace {

TEST(Builders, PathShape) {
  Graph g = build::path(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 2);
  EXPECT_EQ(g.degree(4), 1);
  EXPECT_FALSE(girth(g).has_value());
}

TEST(Builders, CycleShape) {
  Graph g = build::cycle(6);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 6u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_EQ(girth(g), 6);
}

TEST(Builders, CycleSuccessorPortsConsistent) {
  for (std::size_t n : {2u, 3u, 8u, 17u}) {
    Graph g = build::cycle(n);
    const auto succ = cycle_successor_ports(g);
    EXPECT_TRUE(successor_ports_consistent(g, succ)) << n;
    // They encode the 0 -> 1 -> ... orientation.
    for (NodeId v = 0; v < n; ++v)
      EXPECT_EQ(g.neighbor(v, succ[v]), (v + 1) % n) << n;
  }
}

TEST(Builders, DegenerateCycles) {
  Graph one = build::cycle(1);
  EXPECT_EQ(one.num_edges(), 1u);
  EXPECT_TRUE(one.is_self_loop(0));
  EXPECT_EQ(girth(one), 1);

  Graph two = build::cycle(2);
  EXPECT_EQ(two.num_edges(), 2u);
  EXPECT_EQ(girth(two), 2);
}

TEST(Builders, CompleteBinaryTree) {
  Graph g = build::complete_binary_tree(4);
  EXPECT_EQ(g.num_nodes(), 15u);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_EQ(g.degree(0), 2);   // root
  EXPECT_EQ(g.degree(1), 3);   // internal
  EXPECT_EQ(g.degree(14), 1);  // leaf
  EXPECT_FALSE(girth(g).has_value());
}

TEST(Builders, TorusIsFourRegular) {
  Graph g = build::torus(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_EQ(g.num_edges(), 40u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), 4);
  EXPECT_EQ(girth(g), 4);
}

// Like the regular families, the torus family rounds n up: 8 columns and
// ⌈n/8⌉ rows.
TEST(Builders, TorusFamilyRoundsUp) {
  EXPECT_EQ(build::family("torus", 1, 3, 0).num_nodes(), 8u);
  EXPECT_EQ(build::family("torus", 5, 3, 0).num_nodes(), 8u);
  EXPECT_EQ(build::family("torus", 16, 3, 0).num_nodes(), 16u);
  EXPECT_EQ(build::family("torus", 20, 3, 0).num_nodes(), 24u);
  EXPECT_EQ(build::family("torus", 4096, 3, 0).num_nodes(), 4096u);
}

class RandomRegularTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomRegularTest, DegreesExact) {
  const auto [n, d] = GetParam();
  Graph g = build::random_regular(n, d, 123);
  ASSERT_EQ(g.num_nodes(), static_cast<std::size_t>(n));
  EXPECT_EQ(g.num_edges(), static_cast<std::size_t>(n) * d / 2);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), d);
}

TEST_P(RandomRegularTest, SimpleVariantIsSimple) {
  const auto [n, d] = GetParam();
  Graph g = build::random_regular_simple(n, d, 77);
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_FALSE(g.is_self_loop(e));
  // No parallel edges: neighbor multiset of each node has no repeats.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::set<NodeId> seen;
    for (int p = 0; p < g.degree(v); ++p)
      EXPECT_TRUE(seen.insert(g.neighbor(v, p)).second);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), d);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomRegularTest,
                         ::testing::Values(std::tuple{16, 3},
                                           std::tuple{64, 3},
                                           std::tuple{50, 4},
                                           std::tuple{128, 5}));

TEST(Builders, RandomRegularDeterministicInSeed) {
  Graph a = build::random_regular(32, 3, 5);
  Graph b = build::random_regular(32, 3, 5);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e)
    EXPECT_EQ(a.endpoints(e), b.endpoints(e));
}

class HighGirthTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HighGirthTest, AchievesGirthTarget) {
  const auto [n, d, target] = GetParam();
  Graph g = build::high_girth_regular(n, d, target, 99);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), d);
  const auto gi = girth(g);
  ASSERT_TRUE(gi.has_value());
  EXPECT_GE(*gi, target);
}

INSTANTIATE_TEST_SUITE_P(Targets, HighGirthTest,
                         ::testing::Values(std::tuple{64, 3, 6},
                                           std::tuple{256, 3, 8},
                                           std::tuple{256, 4, 6},
                                           std::tuple{512, 3, 10}));

TEST(Builders, HighGirthAtScaleMeetsTarget) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph g = build::high_girth_regular(std::size_t{1} << 14, 3, 9, seed);
    for (NodeId v = 0; v < g.num_nodes(); ++v) ASSERT_EQ(g.degree(v), 3);
    const auto gi = girth(g);
    ASSERT_TRUE(gi.has_value()) << "seed " << seed;
    EXPECT_GE(*gi, 9) << "seed " << seed;
  }
}

TEST(Builders, HighGirthRefusesAnOddDegreeSum) {
  EXPECT_THROW((void)build::high_girth_regular(25, 3, 6, 1), ContractViolation);
}

TEST(Builders, RandomRegularSimpleAtScaleHasNoLoopOrParallelEdge) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const Graph g = build::random_regular_simple(std::size_t{1} << 16, 3, seed);
    // Checked by sorting the packed (min, max) pairs, independently of the
    // hash table make_simple uses.
    std::vector<std::uint64_t> pairs;
    pairs.reserve(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      ASSERT_NE(u, v) << "self-loop at edge " << e;
      pairs.push_back(std::uint64_t{std::min(u, v)} << 32 | std::max(u, v));
    }
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end())
        << "parallel edge, seed " << seed;
    for (NodeId v = 0; v < g.num_nodes(); ++v) ASSERT_EQ(g.degree(v), 3);
  }
}

TEST(Builders, RandomBoundedDegreeRespectsCap) {
  Graph g = build::random_bounded_degree(200, 4, 0.8, 3);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_LE(g.degree(v), 4);
  EXPECT_GT(g.num_edges(), 0u);
}

}  // namespace
}  // namespace padlock
