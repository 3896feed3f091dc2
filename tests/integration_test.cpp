// Cross-module integration: the gadget constraints audited for locality on
// extracted balls, and end-to-end adversarial scenarios on padded
// instances.
#include <gtest/gtest.h>

#include "core/hierarchy.hpp"
#include "core/pi_prime.hpp"
#include "gadget/constraints.hpp"
#include "gadget/faults.hpp"
#include "gadget/gadget.hpp"
#include "graph/builders.hpp"
#include "graph/subgraph.hpp"
#include "lcl/problems/sinkless_orientation.hpp"

namespace padlock {
namespace {

// The gadget labels restricted to an extracted ball: node maps through
// restrict_to_ball, half labels through the ball's edge map (extract_ball
// keeps each edge's endpoint order, so sides carry over).
GadgetLabels ball_labels(const BallExtract& ball, const GadgetLabels& labels) {
  GadgetLabels out(ball.graph);
  out.index = restrict_to_ball(ball, labels.index);
  out.port = restrict_to_ball(ball, labels.port);
  out.center = restrict_to_ball(ball, labels.center);
  out.vcolor = restrict_to_ball(ball, labels.vcolor);
  out.delta = labels.delta;
  for (EdgeId be = 0; be < ball.graph.num_edges(); ++be)
    for (int side = 0; side < 2; ++side)
      out.half[HalfEdge{be, side}] =
          labels.half[HalfEdge{ball.edge_to_original[be], side}];
  return out;
}

// node_structure_ok at v evaluated on v's radius-`radius` ball alone must
// give the verdict it gives on the whole graph, at every node.
void expect_structure_verdicts_local(const GadgetInstance& inst, int radius) {
  const Graph& g = inst.graph;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const BallExtract ball = extract_ball(g, v, radius);
    EXPECT_EQ(node_structure_ok(ball.graph, ball_labels(ball, inst.labels),
                                ball.center()),
              node_structure_ok(g, inst.labels, v))
        << "node " << v << " radius " << radius;
  }
}

// The paper's structural constraints are constant-radius (§4.2/§4.3): the
// deepest, 2d, walks 4 hops, and a node's verdict is a function of its
// radius-5 ball. extract_ball is the locality oracle: the audit re-runs
// the constraints on each node's ball, on a valid gadget and on a faulted
// copy of it for every fault kind, so rejections are audited too.
TEST(GadgetLocality, StructureVerdictsAreRadius5Local) {
  const GadgetInstance valid = build_gadget(3, 4);
  ASSERT_TRUE(check_gadget_structure(valid.graph, valid.labels).all_ok);
  expect_structure_verdicts_local(valid, 5);
  for (const GadgetFault fault : all_gadget_faults()) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      SCOPED_TRACE(fault_name(fault) + " seed " + std::to_string(seed));
      const GadgetInstance faulted = inject_fault(valid, fault, seed);
      ASSERT_FALSE(
          check_gadget_structure(faulted.graph, faulted.labels).all_ok);
      expect_structure_verdicts_local(faulted, 5);
    }
  }
}

// Adversary floods a padded instance's Ψ_G part with Error claims on a
// fully valid padding: every constraint family must reject it.
TEST(PiPrimeAdversary, ErrorFloodOnValidPaddingRejected) {
  Graph base = build::random_regular_simple(8, 3, 2);
  const auto pb = build_padded_instance(base, NeLabeling(base), 3, 3);
  const auto ids = shuffled_ids(pb.instance.graph, 1);
  auto res = solve_pi_prime(
      pb.instance,
      AlgorithmRegistry::instance().algo("sinkless-orientation",
                                         "short-cycle-det"),
      ids, pb.instance.graph.num_nodes());
  const SinklessOrientation pi;
  ASSERT_TRUE(check_pi_prime(pb.instance, pi, res.output).ok);
  for (NodeId v = 0; v < pb.instance.graph.num_nodes(); ++v) {
    res.output.psi.kind[v] = kPsiError;
    res.output.psi.witness[v] = kWSelf;
  }
  EXPECT_FALSE(check_pi_prime(pb.instance, pi, res.output).ok);
}

// Adversary keeps the proofs honest but ships an unsolved inner problem
// (all virtual halves In): the Σ_list machinery must reject.
TEST(PiPrimeAdversary, UnsolvedInnerProblemRejected) {
  Graph base = build::random_regular_simple(8, 3, 4);
  const auto pb = build_padded_instance(base, NeLabeling(base), 3, 3);
  const auto ids = shuffled_ids(pb.instance.graph, 2);
  // A lazy "solver": everything In — every virtual node is a sink.
  const AlgoSpec lazy{.solve = [](const RunContext& ctx) {
    const Graph& vg = ctx.graph;
    NeLabeling out(vg);
    for (EdgeId e = 0; e < vg.num_edges(); ++e) {
      out.half[HalfEdge{e, 0}] = SinklessOrientation::kIn;
      out.half[HalfEdge{e, 1}] = SinklessOrientation::kIn;
    }
    return AlgoResult{.output = out, .rounds = {}, .stats = {}};
  }};
  auto res =
      solve_pi_prime(pb.instance, lazy, ids, pb.instance.graph.num_nodes());
  const SinklessOrientation pi;
  EXPECT_FALSE(check_pi_prime(pb.instance, pi, res.output).ok);
}

// The hierarchy is deterministic end to end given the seed, including the
// randomized leaf (seeded randomness), across two process-independent runs.
TEST(Integration, HierarchyFullyReproducible) {
  const auto h1 = build_hierarchy(2, 32, 77);
  const auto h2 = build_hierarchy(2, 32, 77);
  EXPECT_EQ(h1.total_nodes(), h2.total_nodes());
  const AlgoSpec& leaf = AlgorithmRegistry::instance().algo(
      "sinkless-orientation", "propose-repair");
  const auto a = solve_hierarchy(h1, leaf, 5);
  const auto b = solve_hierarchy(h2, leaf, 5);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.leaf_rounds, b.leaf_rounds);
}

}  // namespace
}  // namespace padlock
