#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/carving.hpp"
#include "algo/derandomize.hpp"
#include "algo/luby_mis.hpp"
#include "graph/builders.hpp"
#include "graph/metrics.hpp"
#include "lcl/problems/coloring.hpp"
#include "lcl/problems/mis.hpp"
#include "support/rng.hpp"

namespace padlock {
namespace {

struct DerandCase {
  const char* name;
  Graph (*make)(std::size_t, std::uint64_t);
  std::size_t n;
};

Graph d_cycle(std::size_t n, std::uint64_t) { return build::cycle(n); }
Graph d_path(std::size_t n, std::uint64_t) { return build::path(n); }
Graph d_cubic(std::size_t n, std::uint64_t s) {
  return build::random_regular_simple(n, 3, s);
}
Graph d_dense(std::size_t n, std::uint64_t s) {
  return build::random_bounded_degree_simple(n, 6, 0.7, s);
}

class DerandomizeTest : public ::testing::TestWithParam<DerandCase> {};

TEST_P(DerandomizeTest, MisSweepIsMaximalIndependent) {
  const auto& c = GetParam();
  const Graph g = c.make(c.n, 21);
  const IdMap ids = shuffled_ids(g, 5);
  const auto res = derandomized_mis(g, ids, 77);
  NodeMap<bool> in_set(g, false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_TRUE(res.output[v] == 1 || res.output[v] == 2) << c.name;
    in_set[v] = res.output[v] == 1;
  }
  EXPECT_TRUE(is_mis(g, in_set)) << c.name;
  EXPECT_GT(res.rounds, 0);
  EXPECT_GE(res.rounds, res.sweep_rounds);
}

TEST_P(DerandomizeTest, ColoringSweepIsProper) {
  const auto& c = GetParam();
  const Graph g = c.make(c.n, 22);
  const IdMap ids = shuffled_ids(g, 6);
  const auto res = derandomized_coloring(g, ids, 78);
  NodeMap<int> colors(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) colors[v] = res.output[v];
  EXPECT_TRUE(is_proper_coloring(g, colors, g.max_degree() + 1)) << c.name;
}

TEST_P(DerandomizeTest, SweepOverCarvingDecompositionAlsoWorks) {
  const auto& c = GetParam();
  const Graph g = c.make(c.n, 23);
  const IdMap ids = shuffled_ids(g, 7);
  const Decomposition d = carving_decomposition(g, ids);
  const auto res = solve_by_decomposition(g, d, mis_completion(ids));
  NodeMap<bool> in_set(g, false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) in_set[v] = res.output[v] == 1;
  EXPECT_TRUE(is_mis(g, in_set)) << c.name;
  EXPECT_EQ(res.colors_used, d.num_colors);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, DerandomizeTest,
    ::testing::Values(DerandCase{"cycle", d_cycle, 60},
                      DerandCase{"path", d_path, 41},
                      DerandCase{"cubic", d_cubic, 90},
                      DerandCase{"dense", d_dense, 72}),
    [](const auto& info) { return info.param.name; });

TEST(Derandomize, SweepRoundsScaleWithColorsTimesRadius) {
  const Graph g = build::random_regular_simple(128, 3, 31);
  const IdMap ids = shuffled_ids(g, 8);
  const Decomposition d = network_decomposition(g, ids, 99);
  const auto res = solve_by_decomposition(g, d, mis_completion(ids));
  // Each color class costs at most 2*max_radius+1; never more in total.
  EXPECT_LE(res.sweep_rounds,
            d.num_colors * (2 * d.max_cluster_radius + 1));
  EXPECT_GE(res.sweep_rounds, d.num_colors);  // >= 1 round per color
}

TEST(Derandomize, MatchesQualityOfDirectLuby) {
  // Not a performance claim — both must simply be valid MIS; sizes are
  // instance-dependent but should be within a small factor on regular
  // graphs.
  const Graph g = build::random_regular_simple(200, 4, 13);
  const IdMap ids = shuffled_ids(g, 9);
  const auto der = derandomized_mis(g, ids, 1);
  const auto lub = luby_mis(g, ids, 2);
  std::size_t der_size = 0, lub_size = 0;
  NodeMap<bool> der_set(g, false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    der_set[v] = der.output[v] == 1;
    der_size += der_set[v] ? 1 : 0;
    lub_size += lub.in_set[v] ? 1 : 0;
  }
  EXPECT_TRUE(is_mis(g, der_set));
  EXPECT_TRUE(is_mis(g, lub.in_set));
  EXPECT_GT(der_size, 0u);
  EXPECT_GT(lub_size, 0u);
  EXPECT_LT(der_size, 4 * lub_size + 4);
  EXPECT_LT(lub_size, 4 * der_size + 4);
}

TEST(Derandomize, ParallelEdgesAreHarmless) {
  GraphBuilder b;
  b.add_nodes(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);  // parallel pair
  b.add_edge(1, 2);
  const Graph g = std::move(b).build();
  const IdMap ids = sequential_ids(g);
  const auto res = derandomized_mis(g, ids, 3);
  NodeMap<bool> in_set(g, false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) in_set[v] = res.output[v] == 1;
  EXPECT_TRUE(is_mis(g, in_set));
}

// ---- cluster_radius ------------------------------------------------------
// The early-stopping BFS must agree with the max of a full bfs_distances
// over the members, unreachable members skipped.

int full_bfs_radius(const Graph& g, NodeId center,
                    const std::vector<NodeId>& members) {
  const NodeMap<int> dist = bfs_distances(g, center);
  int r = 0;
  for (const NodeId v : members) r = std::max(r, dist[v]);  // -1 skipped
  return r;
}

TEST(ClusterRadius, MatchesFullBfsOnRandomMemberSets) {
  const Graph g = build::family("bounded", 600, 3, 4);
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const auto center = static_cast<NodeId>(rng.below(g.num_nodes()));
    std::vector<NodeId> members;
    const std::uint64_t size = 1 + rng.below(40);
    for (std::uint64_t i = 0; i < size; ++i)
      members.push_back(static_cast<NodeId>(rng.below(g.num_nodes())));
    if (trial % 2 == 0) members.push_back(center);  // duplicates are fine
    EXPECT_EQ(cluster_radius(g, center, members),
              full_bfs_radius(g, center, members))
        << "trial " << trial;
  }
}

TEST(ClusterRadius, CenterNeedNotBeAMember) {
  const Graph g = build::path(10);
  const std::vector<NodeId> members = {6, 7, 3};
  EXPECT_EQ(cluster_radius(g, 5, members), 2);
  EXPECT_EQ(cluster_radius(g, 5, members), full_bfs_radius(g, 5, members));
  EXPECT_EQ(cluster_radius(g, 5, {}), 0);
}

TEST(ClusterRadius, MembersInAnotherComponentAreSkipped) {
  GraphBuilder b;
  b.add_nodes(8);
  for (NodeId v = 0; v + 1 < 4; ++v) b.add_edge(v, v + 1);  // path 0-1-2-3
  for (NodeId v = 4; v + 1 < 8; ++v) b.add_edge(v, v + 1);  // path 4-5-6-7
  const Graph g = std::move(b).build();
  const std::vector<NodeId> members = {1, 2, 7, 5};
  EXPECT_EQ(cluster_radius(g, 0, members), 2);
  EXPECT_EQ(cluster_radius(g, 0, members), full_bfs_radius(g, 0, members));
  EXPECT_EQ(cluster_radius(g, 0, std::vector<NodeId>{6, 7}), 0);
  // Scratch from the call that never reached its members is clean again.
  EXPECT_EQ(cluster_radius(g, 4, members), 3);
}

TEST(ClusterRadius, NetworkDecompositionRadiusMatchesFullBfs) {
  for (const std::string fam : {"regular", "tree", "cycle"}) {
    const Graph g = build::family(fam, 1024, 3, 2);
    const IdMap ids = shuffled_ids(g, 3);
    const Decomposition d = network_decomposition(g, ids, 11);
    int expect = 0;
    for (NodeId c = 0; c < g.num_nodes(); ++c) {
      std::vector<NodeId> members;
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        if (d.cluster[v] == c) members.push_back(v);
      if (!members.empty())
        expect = std::max(expect, full_bfs_radius(g, c, members));
    }
    EXPECT_EQ(d.max_cluster_radius, expect) << fam;
  }
}

// Sweep rounds over the deterministic carving decomposition, as computed by
// the full-BFS radius bookkeeping the early-stopping search replaced.
TEST(Derandomize, CarvingSweepRoundsArePinned) {
  struct Row {
    const char* family;
    std::size_t n;
    int sweep_rounds;
  };
  for (const Row& row : {Row{"cycle", 512, 6}, Row{"cycle", 2048, 6},
                         Row{"regular", 512, 13}, Row{"regular", 2048, 17},
                         Row{"tree", 512, 12}, Row{"tree", 2048, 12},
                         Row{"bounded", 512, 11}, Row{"bounded", 2048, 11}}) {
    const Graph g = build::family(row.family, row.n, 3, 1);
    const IdMap ids = shuffled_ids(g, 5);
    const Decomposition d = carving_decomposition(g, ids);
    const auto res = solve_by_decomposition(g, d, mis_completion(ids));
    EXPECT_EQ(res.sweep_rounds, row.sweep_rounds)
        << row.family << " n=" << row.n;
  }
}

TEST(Derandomize, EmptyGraph) {
  const Graph g = GraphBuilder().build();
  const IdMap ids(g, 0);
  const auto res = derandomized_mis(g, ids, 5);
  EXPECT_EQ(res.rounds, 0);
  EXPECT_EQ(res.output.size(), 0u);
}

}  // namespace
}  // namespace padlock
