// Property and fuzz tests across modules: random instances, random output
// tampering, invariants that must hold for every seed.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "algo/luby_mis.hpp"
#include "algo/matching.hpp"
#include "algo/sinkless_det.hpp"
#include "algo/sinkless_rand.hpp"
#include "core/hierarchy.hpp"
#include "core/runner.hpp"
#include "gadget/faults.hpp"
#include "gadget/verifier.hpp"
#include "graph/builders.hpp"
#include "graph/metrics.hpp"
#include "lcl/checker.hpp"
#include "lcl/problems/matching.hpp"
#include "lcl/problems/mis.hpp"
#include "lcl/problems/sinkless_orientation.hpp"
#include "support/rng.hpp"

namespace padlock {
namespace {

class SeedTest : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SeedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- Tampering: a single flipped output label must always be caught -----

TEST_P(SeedTest, TamperedSinklessOutputRejected) {
  const std::uint64_t seed = GetParam();
  Graph g = build::random_regular(128, 3, seed);
  const auto res = sinkless_orientation_rand(g, shuffled_ids(g, seed), 128,
                                             seed);
  auto labeling = orientation_to_labeling(g, res.tails);
  const SinklessOrientation lcl;
  const NeLabeling input(g);
  ASSERT_TRUE(check_ne_lcl(g, lcl, input, labeling).ok);
  // Corrupt one half-edge (breaks the edge constraint there).
  Rng rng(seed);
  const EdgeId e = static_cast<EdgeId>(rng.below(g.num_edges()));
  const HalfEdge h{e, static_cast<int>(rng.below(2))};
  labeling.half[h] = (labeling.half[h] == SinklessOrientation::kIn)
                         ? SinklessOrientation::kOut
                         : SinklessOrientation::kIn;
  EXPECT_FALSE(check_ne_lcl(g, lcl, input, labeling).ok);
}

TEST_P(SeedTest, TamperedMisRejected) {
  const std::uint64_t seed = GetParam();
  Graph g = build::random_regular_simple(100, 4, seed);
  const auto res = luby_mis(g, shuffled_ids(g, seed), seed);
  ASSERT_TRUE(is_mis(g, res.in_set));
  auto flipped = res.in_set;
  Rng rng(seed * 3 + 1);
  const NodeId v = static_cast<NodeId>(rng.below(g.num_nodes()));
  flipped[v] = !flipped[v];
  // Flipping any single node breaks independence or domination.
  EXPECT_FALSE(is_mis(g, flipped));
}

TEST_P(SeedTest, MatchingEdgeRemovalBreaksMaximality) {
  const std::uint64_t seed = GetParam();
  Graph g = build::random_regular_simple(64, 3, seed);
  const auto res = randomized_matching(g, shuffled_ids(g, seed), seed);
  ASSERT_TRUE(is_maximal_matching(g, res.in_match));
  auto m = res.in_match;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (m[e]) {
      m[e] = false;
      break;
    }
  EXPECT_FALSE(is_maximal_matching(g, m));
}

// ---- Sinkless invariants on adversarial graph shapes --------------------

TEST_P(SeedTest, SinklessOnBoundedDegreeFuzz) {
  const std::uint64_t seed = GetParam();
  // Random multigraph soup with degrees up to 6, loops and parallels.
  Graph g = build::random_bounded_degree(120, 6, 0.7, seed);
  const auto ids = sparse_ids(g, seed);
  const auto det = sinkless_orientation_det(g, ids, g.num_nodes());
  EXPECT_TRUE(is_sinkless(g, det.tails)) << "seed " << seed;
  const auto rnd =
      sinkless_orientation_rand(g, ids, g.num_nodes(), seed ^ 0xF00D);
  EXPECT_TRUE(is_sinkless(g, rnd.tails)) << "seed " << seed;
}

TEST_P(SeedTest, SinklessIdAssignmentInvariance) {
  // Correctness must hold for every id assignment (determinism may not).
  const std::uint64_t seed = GetParam();
  Graph g = build::random_regular_simple(96, 3, seed);
  for (const auto& ids :
       {sequential_ids(g), shuffled_ids(g, seed), sparse_ids(g, seed),
        bfs_adversarial_ids(g)}) {
    const auto det = sinkless_orientation_det(g, ids, g.num_nodes());
    EXPECT_TRUE(is_sinkless(g, det.tails));
  }
}

TEST(SinklessProperty, RoundMonotonicityInGirth) {
  // Higher girth pushes the deterministic certificate radius up: the
  // whole point of the paper's hard instances.
  Graph low = build::random_regular_simple(4096, 3, 4);
  Graph high = build::high_girth_regular(4096, 3, 11, 4);
  const auto rl =
      sinkless_orientation_det(low, shuffled_ids(low, 1), 4096);
  const auto rh =
      sinkless_orientation_det(high, shuffled_ids(high, 1), 4096);
  const auto gl = girth(low);
  const auto gh = girth(high);
  ASSERT_TRUE(gl && gh);
  EXPECT_GT(*gh, *gl);
  EXPECT_GE(rh.report.rounds, *gh / 2);  // must at least see its cycle
}

// ---- Gadget fuzz: random half-label corruption is always caught ---------

TEST_P(SeedTest, RandomHalfCorruptionCaught) {
  const auto inst = build_gadget(3, 4);
  Rng rng(GetParam());
  auto labels = inst.labels;
  // Corrupt a random non-center half-edge to a random different label.
  for (int tries = 0; tries < 64; ++tries) {
    const EdgeId e = static_cast<EdgeId>(rng.below(inst.graph.num_edges()));
    const HalfEdge h{e, static_cast<int>(rng.below(2))};
    if (inst.labels.center[inst.graph.node_at(h)]) continue;
    const int old = labels.half[h];
    const int candidates[] = {kHalfParent, kHalfRight, kHalfLeft,
                              kHalfLChild, kHalfRChild, kHalfUp};
    const int nl = candidates[rng.below(6)];
    if (nl == old) continue;
    labels.half[h] = nl;
    break;
  }
  if (labels.half == inst.labels.half) GTEST_SKIP();
  const auto report = check_gadget_structure(inst.graph, labels);
  EXPECT_FALSE(report.all_ok);
  // And the verifier must still produce a valid proof.
  const auto res = run_gadget_verifier(inst.graph, labels);
  EXPECT_TRUE(res.found_error);
  EXPECT_TRUE(check_psi(inst.graph, labels, res.output).ok);
}

// ---- Custom-checker problems: independent local rules ----------------
// dist2-coloring and ruling-set are verified by their own checkers, not by
// an ne-LCL. These loops restate their local rules over the Graph; every
// verified output of every registered pair must pass them on every family.

// dist2-coloring: a color >= 1 that no other node within distance 2 has.
bool dist2_rule_ok(const Graph& g, const NeLabeling& out, NodeId v) {
  const Label mine = out.node[v];
  if (mine < 1) return false;
  for (int p = 0; p < g.degree(v); ++p) {
    const NodeId u = g.neighbor(v, p);
    if (u != v && out.node[u] == mine) return false;
    for (int q = 0; q < g.degree(u); ++q) {
      const NodeId w = g.neighbor(u, q);
      if (w != v && out.node[w] == mine) return false;
    }
  }
  return true;
}

// ruling-set: label 1 or 2, and no two adjacent 2s (domination is a global
// property, left to the problem's own checker).
bool ruling_set_rule_ok(const Graph& g, const NeLabeling& out, NodeId v) {
  const Label mine = out.node[v];
  if (mine != 1 && mine != 2) return false;
  for (int p = 0; mine == 2 && p < g.degree(v); ++p) {
    const NodeId u = g.neighbor(v, p);
    if (u != v && out.node[u] == 2) return false;
  }
  return true;
}

TEST(CustomCheckerRules, VerifiedOutputsPassOnAllFamilies) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  std::set<std::string> expected, exercised;
  for (const std::string& fam : build::family_names()) {
    for (const std::size_t n : {std::size_t{20}, std::size_t{48}}) {
      const Graph g = build::family(fam, n, 3, 5);
      for (const auto& [problem, algo] : registry.pairs()) {
        const auto rule = problem->name == "dist2-coloring" ? dist2_rule_ok
                          : problem->name == "ruling-set"   ? ruling_set_rule_ok
                                                            : nullptr;
        if (rule == nullptr) continue;
        const std::string pair = problem->name + "/" + algo->name;
        expected.insert(pair);
        if (algo->precondition && !algo->precondition(g)) continue;
        RunOptions opts;
        opts.seed = 9;
        const SolveOutcome solved = run(*problem, *algo, g, opts);
        ASSERT_TRUE(solved.ok()) << pair << " on " << fam << " " << n;
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_TRUE(rule(g, solved.output, v))
              << pair << " on " << fam << " " << n << ": node " << v;
        }
        exercised.insert(pair);
      }
    }
  }
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(exercised, expected);  // every such pair ran somewhere
}

// ---- Hierarchy round accounting sanity ----------------------------------

const AlgoSpec& det_leaf() {
  return AlgorithmRegistry::instance().algo("sinkless-orientation",
                                            "short-cycle-det");
}

TEST(HierarchyProperty, RoundsLowerBoundedByStretchTimesLeaf) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    const auto h = build_hierarchy(2, 64, seed);
    const auto res = solve_hierarchy(h, det_leaf(), seed);
    ASSERT_EQ(res.stretch_per_level.size(), 1u);
    EXPECT_GE(res.rounds, res.leaf_rounds * res.stretch_per_level[0]);
  }
}

TEST(HierarchyProperty, DeterministicReproducible) {
  const auto h = build_hierarchy(2, 32, 9);
  const auto a = solve_hierarchy(h, det_leaf(), 5);
  const auto b = solve_hierarchy(h, det_leaf(), 5);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.leaf_rounds, b.leaf_rounds);
}

TEST(HierarchyProperty, PaddedSizesMultiply) {
  const auto h = build_hierarchy(2, 32, 3);
  const std::size_t base = h.base.num_nodes();
  // Balanced: gadgets hold at least the base size.
  EXPECT_GE(h.total_nodes(), base * base);
}

}  // namespace
}  // namespace padlock
