#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "algo/cole_vishkin.hpp"
#include "algo/color_reduce.hpp"
#include "algo/decomposition.hpp"
#include "algo/linial.hpp"
#include "algo/luby_mis.hpp"
#include "algo/matching.hpp"
#include "graph/builders.hpp"
#include "lcl/problems/coloring.hpp"
#include "lcl/problems/matching.hpp"
#include "lcl/problems/mis.hpp"

namespace padlock {
namespace {

// ---- Cole–Vishkin ----------------------------------------------------------

class ColeVishkinTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ColeVishkinTest, ProducesProper3Coloring) {
  const std::size_t n = GetParam();
  Graph g = build::cycle(n);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto ids = shuffled_ids(g, seed);
    const auto res = cole_vishkin_3color(g, ids, cycle_successor_ports(g), n);
    EXPECT_TRUE(is_proper_coloring(g, res.colors, 3)) << "n=" << n;
  }
}

TEST_P(ColeVishkinTest, SparseIdsAlsoWork) {
  const std::size_t n = GetParam();
  Graph g = build::cycle(n);
  const auto ids = sparse_ids(g, 9);
  const auto res =
      cole_vishkin_3color(g, ids, cycle_successor_ports(g), n * n * n);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, 3));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ColeVishkinTest,
                         ::testing::Values(3, 4, 5, 8, 16, 33, 100, 1024));

TEST(ColeVishkin, RoundsAreLogStarLike) {
  // iterations(2^64-ish) is small and monotone-ish in id space.
  EXPECT_LE(cole_vishkin_iterations(1ull << 62), 6);
  EXPECT_GE(cole_vishkin_iterations(1ull << 62), 3);
  EXPECT_LE(cole_vishkin_iterations(100), 4);
  // Total rounds = iterations + 3 shift rounds.
  Graph g = build::cycle(64);
  const auto res =
      cole_vishkin_3color(g, sequential_ids(g), cycle_successor_ports(g), 64);
  EXPECT_EQ(res.rounds, cole_vishkin_iterations(64) + 3);
}

TEST(ColeVishkin, AdversarialIdsStillWork) {
  Graph g = build::cycle(128);
  const auto res = cole_vishkin_3color(g, bfs_adversarial_ids(g),
                                       cycle_successor_ports(g), 128);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, 3));
}

// ---- Color reduction ---------------------------------------------------------

TEST(ColorReduce, CycleSixToThree) {
  Graph g = build::cycle(12);
  NodeMap<int> six(g, 0);
  for (NodeId v = 0; v < 12; ++v) six[v] = 1 + static_cast<int>(v % 6);
  ASSERT_TRUE(is_proper_coloring(g, six, 6));
  const auto res = reduce_to_degree_plus_one(g, six, 6);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, 3));
  EXPECT_EQ(res.rounds, 6);
}

TEST(ColorReduce, TorusToFivePlusOne) {
  Graph g = build::torus(6, 8);
  int k = 0;
  const auto d2 = greedy_distance_coloring(g, 2, &k);
  ASSERT_TRUE(is_distance_coloring(g, d2, 2));
  const auto res = reduce_to_degree_plus_one(g, d2, k);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, g.max_degree() + 1));
}

TEST(ColorReduce, Distance2ColoringBounds) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    Graph g = build::random_regular_simple(60, 3, seed);
    int k = 0;
    const auto colors = greedy_distance_coloring(g, 2, &k);
    EXPECT_TRUE(is_distance_coloring(g, colors, 2));
    EXPECT_LE(k, 3 * 3 + 1);
  }
}

TEST(ColorReduce, Distance2RejectsTooClose) {
  Graph g = build::path(3);
  NodeMap<int> colors(g, 0);
  colors[0] = 1;
  colors[1] = 2;
  colors[2] = 1;  // distance 2 from node 0
  EXPECT_FALSE(is_distance_coloring(g, colors, 2));
}

// ---- Linial color reduction -----------------------------------------------------

class LinialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LinialTest, ProperDeltaPlusOneColoring) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed : {1ull, 2ull}) {
    Graph g = build::random_regular_simple(n, 3, seed);
    const auto ids = shuffled_ids(g, seed);
    const auto res = linial_color(g, ids, n);
    EXPECT_TRUE(is_proper_coloring(g, res.colors, g.max_degree() + 1));
    // Tiny id spaces start below the fixpoint palette and need no
    // polynomial rounds at all.
    if (n >= 64) EXPECT_GT(res.linial_rounds, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LinialTest,
                         ::testing::Values(16, 64, 256, 1024));

TEST(Linial, SparseIdSpaceStillLogStar) {
  Graph g = build::random_regular_simple(256, 3, 3);
  const auto ids = sparse_ids(g, 3);
  const auto res = linial_color(g, ids, 256ull * 256 * 256);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, 4));
  // log*-flavored: a cubed id space costs only a few extra rounds.
  EXPECT_LE(res.linial_rounds, 8);
}

TEST(Linial, WorksOnIrregularAndParallelEdges) {
  GraphBuilder b;
  b.add_nodes(6);
  b.add_edge(0, 1);
  b.add_edge(0, 1);  // parallel
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 0);
  b.add_edge(2, 5);
  Graph g = std::move(b).build();
  const auto res = linial_color(g, sequential_ids(g), 6);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, g.max_degree() + 1));
}

TEST(Linial, StepPaletteShrinksLargeSpaces) {
  EXPECT_LT(linial_step_palette(1ull << 40, 3), 1ull << 20);
  EXPECT_LT(linial_step_palette(10000, 3), 2000u);
  // Fixpoint: tiny palettes stop shrinking.
  const auto fp = linial_step_palette(49, 3);
  EXPECT_GE(fp, 49u);
}

// The field size q is computed from the integer (k+1)-th root of K instead of
// walking primes one at a time; the palettes must not move. Expected values
// were produced by the prime-walking step_params. For the saturated space
// (n = 2^22) its k = 1 walk (~2^32 primes by trial division) was skipped: that
// candidate is q = 2^32 + 15, whose square is far above every k >= 2 palette.
TEST(Linial, StepPaletteMatchesPrimeWalk) {
  const int degrees[] = {2, 3, 4, 8};
  const std::vector<std::pair<int, std::array<std::uint64_t, 4>>> table = {
      {10, {289, 529, 841, 1681}},
      {11, {289, 529, 841, 2209}},
      {12, {289, 529, 841, 2809}},
      {13, {361, 841, 961, 2809}},
      {14, {361, 841, 1369, 3481}},
      {15, {529, 841, 1369, 3481}},
      {16, {529, 841, 1369, 4489}},
      {17, {529, 961, 1369, 4489}},
      {22, {961, 1369, 2209, 6889}},  // sparse_id_space saturates here
  };
  for (const auto& [log_n, palettes] : table) {
    const std::uint64_t K = sparse_id_space(std::uint64_t{1} << log_n);
    for (std::size_t i = 0; i < palettes.size(); ++i) {
      EXPECT_EQ(linial_step_palette(K, degrees[i]), palettes[i])
          << "n = 2^" << log_n << ", degree " << degrees[i];
    }
  }
}

// ---- Luby MIS -----------------------------------------------------------------

class LubyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LubyTest, ProducesValidMis) {
  const std::uint64_t seed = GetParam();
  for (std::size_t n : {10u, 50u, 200u}) {
    Graph g = build::random_regular_simple(n, 3, seed + n);
    const auto res = luby_mis(g, shuffled_ids(g, seed), seed);
    EXPECT_TRUE(is_mis(g, res.in_set)) << "n=" << n;
    EXPECT_GT(res.rounds, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LubyTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(Luby, WorksOnCyclesAndTori) {
  for (auto g : {build::cycle(17), build::torus(5, 7)}) {
    const auto res = luby_mis(g, sequential_ids(g), 42);
    EXPECT_TRUE(is_mis(g, res.in_set));
  }
}

TEST(Luby, RoundsGrowSlowly) {
  // O(log n) w.h.p.: a 4096-node instance should finish well under 30
  // engine rounds (each Luby iteration = 2 rounds).
  Graph g = build::random_regular_simple(4096, 3, 11);
  const auto res = luby_mis(g, shuffled_ids(g, 1), 7);
  EXPECT_TRUE(is_mis(g, res.in_set));
  EXPECT_LE(res.rounds, 40);
}

// ---- Matching ------------------------------------------------------------------

class MatchingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchingTest, RandomizedIsMaximal) {
  const std::uint64_t seed = GetParam();
  for (std::size_t n : {8u, 40u, 128u}) {
    Graph g = build::random_regular(n, 4, seed * 7 + n);  // with multigraph quirks
    const auto res = randomized_matching(g, shuffled_ids(g, seed), seed);
    EXPECT_TRUE(is_maximal_matching(g, res.in_match)) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingTest, ::testing::Values(1, 2, 3, 4));

TEST(Matching, FromColoringIsMaximal) {
  Graph g = build::cycle(30);
  NodeMap<int> colors(g, 0);
  for (NodeId v = 0; v < 30; ++v) colors[v] = 1 + static_cast<int>(v % 3);
  // fix the wrap-around: 29 and 0 both get distinct colors already (29%3=2)
  ASSERT_TRUE(is_proper_coloring(g, colors, 3));
  const auto res = matching_from_coloring(g, colors, 3);
  EXPECT_TRUE(is_maximal_matching(g, res.in_match));
}

TEST(Matching, FromColoringOnTorus) {
  Graph g = build::torus(4, 6);
  int k = 0;
  const auto d2 = greedy_distance_coloring(g, 2, &k);
  const auto res = matching_from_coloring(g, d2, k);
  EXPECT_TRUE(is_maximal_matching(g, res.in_match));
}

TEST(Matching, HandlesSelfLoopGraphs) {
  GraphBuilder b;
  b.add_nodes(3);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  Graph g = std::move(b).build();
  const auto res = randomized_matching(g, sequential_ids(g), 3);
  EXPECT_TRUE(is_maximal_matching(g, res.in_match));
}

// ---- Network decomposition -------------------------------------------------------

class DecompositionTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(DecompositionTest, ValidOnRandomRegular) {
  const auto [n, seed] = GetParam();
  Graph g = build::random_regular_simple(n, 3, seed);
  const auto d = network_decomposition(g, shuffled_ids(g, seed), seed);
  const int cap = 2 + static_cast<int>(std::bit_width(n - 1));
  EXPECT_TRUE(decomposition_valid(g, d, cap));
  EXPECT_GE(d.num_colors, 1);
  EXPECT_GT(d.rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DecompositionTest,
    ::testing::Combine(::testing::Values(16, 64, 256),
                       ::testing::Values(1, 2, 3)));

TEST(Decomposition, ColorsStayLogarithmic) {
  Graph g = build::random_regular_simple(1024, 3, 5);
  const auto d = network_decomposition(g, shuffled_ids(g, 5), 5);
  // w.h.p. O(log n): generous bound 6*log2(n).
  EXPECT_LE(d.num_colors, 60);
}

TEST(Decomposition, HandlesDisconnectedAndIsolated) {
  GraphBuilder b;
  b.add_nodes(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  Graph g = std::move(b).build();
  const auto d = network_decomposition(g, sequential_ids(g), 1);
  EXPECT_TRUE(decomposition_valid(g, d, 10));
}

}  // namespace
}  // namespace padlock
