#include <gtest/gtest.h>

#include "core/hierarchy.hpp"
#include "core/padded_graph.hpp"
#include "core/pi_prime.hpp"
#include "algo/sinkless_det.hpp"
#include "gadget/faults.hpp"
#include "graph/builders.hpp"
#include "graph/metrics.hpp"
#include "lcl/problems/sinkless_orientation.hpp"

namespace padlock {
namespace {

const AlgoSpec& det_leaf() {
  return AlgorithmRegistry::instance().algo("sinkless-orientation",
                                            "short-cycle-det");
}

const AlgoSpec& rand_leaf() {
  return AlgorithmRegistry::instance().algo("sinkless-orientation",
                                            "propose-repair");
}

/// Relabels one LChild half next to the center of base node `b`'s gadget
/// as RChild (a duplicate child label): that gadget becomes invalid.
void corrupt_gadget(PaddedBuild& pb, NodeId b) {
  PaddedInstance& inst = pb.instance;
  const NodeId center = pb.meta.center[b];
  for (int p = 0; p < inst.graph.degree(center); ++p) {
    const NodeId root = inst.graph.node_across(inst.graph.incidence(center, p));
    for (int q = 0; q < inst.graph.degree(root); ++q) {
      const HalfEdge rh = inst.graph.incidence(root, q);
      if (inst.gadget.half[rh] == kHalfLChild) {
        inst.gadget.half[rh] = kHalfRChild;
        return;
      }
    }
  }
}

// ---- Padded graph construction -------------------------------------------------

class PaddedBuildTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(PaddedBuildTest, SizesAndLabels) {
  const auto [n, height] = GetParam();
  Graph base = build::random_regular_simple(n, 3, 7);
  const auto pb = build_padded_instance(base, NeLabeling(base), 3, height);
  const auto& inst = pb.instance;
  EXPECT_EQ(inst.graph.num_nodes(), n * gadget_size(3, height));
  // One PortEdge per base edge.
  std::size_t port_edges = 0;
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e)
    port_edges += inst.port_edge[e] ? 1 : 0;
  EXPECT_EQ(port_edges, base.num_edges());
  // Every port node has exactly one PortEdge (cubic base, delta 3).
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v) {
    if (inst.gadget.port[v] == 0) continue;
    int cnt = 0;
    for (int p = 0; p < inst.graph.degree(v); ++p)
      cnt += inst.port_edge[inst.graph.incidence(v, p).edge] ? 1 : 0;
    EXPECT_EQ(cnt, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, PaddedBuildTest,
                         ::testing::Values(std::tuple{8, 3}, std::tuple{16, 4},
                                           std::tuple{32, 3}));

TEST(PaddedBuild, DistancesStretchByGadgetDepth) {
  Graph base = build::cycle(8);
  const auto pb = build_padded_instance(base, NeLabeling(base), 3, 5);
  // Base diameter 4; padded diameter must be >= 4 * (something like the
  // port-to-port distance through a gadget).
  EXPECT_GE(diameter(pb.instance.graph), 4 * 4);
}

// ---- Π' solve + check -----------------------------------------------------------

class PiPrimeSolveTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(PiPrimeSolveTest, SolvesAndChecksOnValidPadding) {
  const auto [n, randomized] = GetParam();
  Graph base = build::random_regular_simple(n, 3, n);
  const auto pb = build_padded_instance(base, NeLabeling(base), 3, 3);
  const auto& inst = pb.instance;
  const auto ids = shuffled_ids(inst.graph, 5);
  const auto res =
      solve_pi_prime(inst, (randomized ? rand_leaf() : det_leaf()).solve, ids,
                     inst.graph.num_nodes(), 9);
  EXPECT_EQ(res.virtual_nodes, base.num_nodes());
  EXPECT_EQ(res.virtual_edges, base.num_edges());
  const SinklessOrientation pi;
  const auto chk = check_pi_prime(inst, pi, res.output);
  EXPECT_TRUE(chk.ok) << (chk.violations.empty()
                              ? "?"
                              : std::to_string(chk.violations[0].first) +
                                    ": " + chk.violations[0].second);
  EXPECT_GT(res.report.rounds, res.inner_rounds);
  EXPECT_GE(res.stretch, 3);
}

INSTANTIATE_TEST_SUITE_P(Cases, PiPrimeSolveTest,
                         ::testing::Combine(::testing::Values(8, 16, 32),
                                            ::testing::Values(false, true)));

// Lemma 4 for every registered ne-LCL pair whose precondition the cubic
// base meets, not only sinkless orientation: the solvers read the id space
// of the context Π' builds (linial, color-reduce), and the Π' output must
// satisfy that problem's ne-LCL, next to an invalid gadget too.
TEST(PiPrimeSolve, EveryRegisteredInnerProblemSolvesAndChecks) {
  const Graph base = build::random_regular_simple(16, 3, 4);
  int pairs = 0;
  for (const auto& [problem, algo] : AlgorithmRegistry::instance().pairs()) {
    if (!problem->make_lcl) continue;
    if (algo->precondition && !algo->precondition(base)) continue;
    ++pairs;
    const auto lcl = problem->make_lcl(base);
    for (const bool corrupt : {false, true}) {
      auto pb = build_padded_instance(base, NeLabeling(base), 3, 4);
      if (corrupt) corrupt_gadget(pb, 3);
      const auto ids = shuffled_ids(pb.instance.graph, 2);
      const auto res = solve_pi_prime(pb.instance, algo->solve, ids,
                                      pb.instance.graph.num_nodes(), 5);
      EXPECT_EQ(res.virtual_nodes, base.num_nodes() - (corrupt ? 1 : 0));
      EXPECT_GT(res.inner_rounds, 0);
      const auto chk = check_pi_prime(pb.instance, *lcl, res.output);
      EXPECT_TRUE(chk.ok) << problem->name << "/" << algo->name
                          << " corrupt=" << corrupt << ": "
                          << (chk.violations.empty()
                                  ? "?"
                                  : std::to_string(chk.violations[0].first) +
                                        ": " + chk.violations[0].second);
    }
  }
  EXPECT_GE(pairs, 10);
}

// The virtual graph is far smaller than the padded instance, but its nodes
// know the padded size: Lemma 4 passes it as n_known and id_space, and
// short-cycle-det sizes its cycle budget from it.
TEST(PiPrimeSolve, VirtualSolverKnowsThePaddedSize) {
  const Graph base = build::random_regular_simple(16, 3, 4);
  const auto pb = build_padded_instance(base, NeLabeling(base), 3, 4);
  const std::size_t n = pb.instance.graph.num_nodes();
  const auto ids = shuffled_ids(pb.instance.graph, 2);
  std::size_t virtual_n = 0;
  std::int64_t budget = 0;
  solve_pi_prime(pb.instance, [&](const RunContext& ctx) {
    EXPECT_EQ(ctx.n_known, n);
    EXPECT_EQ(ctx.id_space, n);
    virtual_n = ctx.graph.num_nodes();
    AlgoResult r = det_leaf().solve(ctx);
    budget = r.stats.get_or("cycle_budget", 0);
    return r;
  }, ids, n);
  EXPECT_EQ(virtual_n, base.num_nodes());
  EXPECT_EQ(budget, sinkless_det_cycle_budget(n));
  EXPECT_GT(budget, sinkless_det_cycle_budget(virtual_n));
}

TEST(PiPrimeSolve, RoundsScaleWithInnerTimesStretch) {
  Graph base = build::random_regular_simple(64, 3, 3);
  const auto small = build_padded_instance(base, NeLabeling(base), 3, 3);
  const auto big = build_padded_instance(base, NeLabeling(base), 3, 6);
  const auto ids_s = shuffled_ids(small.instance.graph, 1);
  const auto ids_b = shuffled_ids(big.instance.graph, 1);
  const auto rs = solve_pi_prime(small.instance, det_leaf().solve, ids_s,
                                 small.instance.graph.num_nodes());
  const auto rb = solve_pi_prime(big.instance, det_leaf().solve, ids_b,
                                 big.instance.graph.num_nodes());
  // Taller gadgets -> larger stretch -> more rounds.
  EXPECT_GT(rb.stretch, rs.stretch);
  EXPECT_GT(rb.report.rounds, rs.report.rounds);
}

TEST(PiPrimeCheck, RejectsTamperedVirtualSolution) {
  Graph base = build::random_regular_simple(16, 3, 2);
  const auto pb = build_padded_instance(base, NeLabeling(base), 3, 3);
  const auto ids = shuffled_ids(pb.instance.graph, 4);
  auto res = solve_pi_prime(pb.instance, det_leaf().solve, ids,
                            pb.instance.graph.num_nodes());
  const SinklessOrientation pi;
  ASSERT_TRUE(check_pi_prime(pb.instance, pi, res.output).ok);
  // Flip one virtual half-output inside one gadget: either the GadEdge
  // equality (6) or the inner constraints (5/6) must catch it.
  for (NodeId v = 0; v < pb.instance.graph.num_nodes(); ++v) {
    if (pb.instance.gadget.port[v] != 1) continue;
    auto l = res.output.list[v];
    l.o_b[0] = (l.o_b[0] == SinklessOrientation::kIn)
                   ? SinklessOrientation::kOut
                   : SinklessOrientation::kIn;
    res.output.list[v] = l;
    break;
  }
  EXPECT_FALSE(check_pi_prime(pb.instance, pi, res.output).ok);
}

TEST(PiPrimeCheck, RejectsFakePortError) {
  Graph base = build::random_regular_simple(16, 3, 2);
  const auto pb = build_padded_instance(base, NeLabeling(base), 3, 3);
  const auto ids = shuffled_ids(pb.instance.graph, 4);
  auto res = solve_pi_prime(pb.instance, det_leaf().solve, ids,
                            pb.instance.graph.num_nodes());
  const SinklessOrientation pi;
  // Claiming PortErr1 between two valid gadgets violates constraint 4.
  for (NodeId v = 0; v < pb.instance.graph.num_nodes(); ++v) {
    if (pb.instance.gadget.port[v] != 0 &&
        res.output.port_status[v] == kNoPortErr) {
      res.output.port_status[v] = kPortErr1;
      // Keep constraint 5 formally consistent (S must drop the port), so
      // the only broken constraint is 4.
      auto l = res.output.list[v];
      l.ports &= ~(1u << (pb.instance.gadget.port[v] - 1));
      res.output.list[v] = l;
      break;
    }
  }
  EXPECT_FALSE(check_pi_prime(pb.instance, pi, res.output).ok);
}

TEST(PiPrimeCheck, CheatingGadOkOnInvalidGadgetStillNeedsValidSolution) {
  // Build a padded instance, then corrupt one gadget (swap two sibling
  // half labels). The solver must detect it, prove the error, and still
  // solve Π on the remaining gadgets; the checker must accept.
  Graph base = build::random_regular_simple(16, 3, 6);
  auto pb = build_padded_instance(base, NeLabeling(base), 3, 4);
  corrupt_gadget(pb, 0);
  const PaddedInstance& inst = pb.instance;
  const auto ids = shuffled_ids(inst.graph, 8);
  const auto res = solve_pi_prime(inst, det_leaf().solve, ids,
                                  inst.graph.num_nodes());
  EXPECT_EQ(res.virtual_nodes, base.num_nodes() - 1);
  const SinklessOrientation pi;
  const auto chk = check_pi_prime(inst, pi, res.output);
  EXPECT_TRUE(chk.ok) << (chk.violations.empty()
                              ? "?"
                              : std::to_string(chk.violations[0].first) +
                                    ": " + chk.violations[0].second);
}

// ---- Encoding round-trips ---------------------------------------------------------

TEST(HierarchyEncoding, NodeRoundTrip) {
  const Label l = encode_padded_node(5, 3, 3, false, 611, 42);
  const auto d = decode_padded_node(l);
  EXPECT_EQ(d.delta, 5);
  EXPECT_EQ(d.index, 3);
  EXPECT_EQ(d.port, 3);
  EXPECT_FALSE(d.center);
  EXPECT_EQ(d.vcolor, 611);
  EXPECT_EQ(d.deeper, 42);
}

TEST(HierarchyEncoding, InstanceRoundTrip) {
  Graph base = build::random_regular_simple(8, 3, 1);
  const auto pb = build_padded_instance(base, NeLabeling(base), 3, 3);
  const auto enc = encode_padded_instance(pb.instance);
  const auto dec = decode_padded_instance(pb.instance.graph, enc);
  EXPECT_EQ(dec.gadget.delta, pb.instance.gadget.delta);
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    EXPECT_EQ(dec.gadget.index[v], pb.instance.gadget.index[v]);
    EXPECT_EQ(dec.gadget.vcolor[v], pb.instance.gadget.vcolor[v]);
  }
  EXPECT_EQ(dec.port_edge, pb.instance.port_edge);
  EXPECT_EQ(dec.pi_input, pb.instance.pi_input);
}

// ---- Hierarchy --------------------------------------------------------------------

TEST(Hierarchy, LevelOneIsPlainSinkless) {
  const auto h = build_hierarchy(1, 32, 3);
  EXPECT_EQ(h.levels, 1);
  const auto det = solve_hierarchy(h, det_leaf(), 3);
  const auto rnd = solve_hierarchy(h, rand_leaf(), 3);
  EXPECT_TRUE(det.leaf_output_sinkless);
  EXPECT_TRUE(rnd.leaf_output_sinkless);
  EXPECT_GT(det.rounds, 0);
}

TEST(Hierarchy, LeafMustSolveSinklessOrientation) {
  const auto h = build_hierarchy(2, 8, 1);
  EXPECT_THROW(
      solve_hierarchy(h, AlgorithmRegistry::instance().algo("mis", "luby"), 1),
      RegistryError);
}

TEST(Hierarchy, LevelTwoSolvesAndStretches) {
  const auto h = build_hierarchy(2, 16, 5);
  ASSERT_EQ(h.levels, 2);
  const auto det = solve_hierarchy(h, det_leaf(), 5);
  EXPECT_TRUE(det.leaf_output_sinkless);
  EXPECT_EQ(det.stretch_per_level.size(), 1u);
  // Outer rounds ≈ verifier + leaf * stretch: strictly more than the leaf.
  EXPECT_GT(det.rounds, det.leaf_rounds);
  EXPECT_GT(det.stretch_per_level[0], 1);
}

TEST(Hierarchy, LevelTwoCheckableEndToEnd) {
  const auto h = build_hierarchy(2, 12, 9);
  const auto ids = shuffled_ids(h.top_graph(), 1);
  const auto res = solve_pi_prime(h.padded.back().instance, det_leaf().solve,
                                  ids, h.total_nodes());
  const SinklessOrientation pi;
  EXPECT_TRUE(check_pi_prime(h.padded.back().instance, pi, res.output).ok);
}

TEST(Hierarchy, LevelThreeRoundsCompose) {
  const auto h = build_hierarchy(3, 8, 7);
  ASSERT_EQ(h.levels, 3);
  const auto det = solve_hierarchy(h, det_leaf(), 7);
  EXPECT_TRUE(det.leaf_output_sinkless);
  EXPECT_EQ(det.stretch_per_level.size(), 2u);
  EXPECT_GT(det.rounds, det.leaf_rounds * det.stretch_per_level[1]);
}

TEST(Hierarchy, RandomizedBeatsDeterministicAtLevelTwo) {
  // The paper's headline at one padding level: D ≈ log², R ≈ log·loglog.
  // The base must be large enough for the level-1 algorithms to separate
  // (below ~2^8 base nodes both run in a handful of rounds).
  const auto h = build_hierarchy(2, 512, 11);
  const auto det = solve_hierarchy(h, det_leaf(), 11);
  const auto rnd = solve_hierarchy(h, rand_leaf(), 11);
  EXPECT_TRUE(det.leaf_output_sinkless);
  EXPECT_TRUE(rnd.leaf_output_sinkless);
  EXPECT_LT(rnd.leaf_rounds, det.leaf_rounds);
  EXPECT_LT(rnd.rounds, det.rounds);
}

}  // namespace
}  // namespace padlock
