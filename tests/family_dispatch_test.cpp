#include <gtest/gtest.h>

#include <sstream>

#include "core/hierarchy.hpp"
#include "graph/builders.hpp"
#include "io/serialize.hpp"
#include "gadget/gadget.hpp"
#include "lcl/problems/sinkless_orientation.hpp"

namespace padlock {
namespace {

const AlgoSpec& det_leaf() {
  return AlgorithmRegistry::instance().algo("sinkless-orientation",
                                            "short-cycle-det");
}

// ---- family dispatch ------------------------------------------------------------

TEST(FamilyDispatch, TreeOutputRejectedUnderPathFamilyTag) {
  // A tree-padded instance solved correctly, then re-tagged as path-family:
  // the Ψ_G constraints of the path family must reject the tree gadgets
  // (their labels use Parent/LChild/RChild, outside the path domain).
  const Graph base = build::cycle(4);
  PaddedBuild pb = build_padded_instance(base, NeLabeling(base), 2, 3);
  const IdMap ids = shuffled_ids(pb.instance.graph, 3);
  const auto res = solve_pi_prime(pb.instance, det_leaf().solve, ids,
                                  pb.instance.graph.num_nodes());
  const SinklessOrientation pi;
  ASSERT_TRUE(check_pi_prime(pb.instance, pi, res.output).ok);

  PaddedInstance mislabeled = pb.instance;
  mislabeled.family = GadgetFamilyKind::kPath;
  EXPECT_FALSE(check_pi_prime(mislabeled, pi, res.output).ok);
}

TEST(FamilyDispatch, PathOutputRejectedUnderTreeFamilyTag) {
  const Graph base = build::cycle(4);
  PaddedBuild pb = build_padded_instance_path(base, NeLabeling(base), 2, 3);
  const IdMap ids = shuffled_ids(pb.instance.graph, 4);
  const auto res = solve_pi_prime(pb.instance, det_leaf().solve, ids,
                                  pb.instance.graph.num_nodes());
  const SinklessOrientation pi;
  ASSERT_TRUE(check_pi_prime(pb.instance, pi, res.output).ok);

  PaddedInstance mislabeled = pb.instance;
  mislabeled.family = GadgetFamilyKind::kTree;
  EXPECT_FALSE(check_pi_prime(mislabeled, pi, res.output).ok);
}

TEST(FamilyDispatch, SolverTreatsMislabeledGadgetsAsInvalid) {
  // Solving a path-padded instance under the tree tag: every gadget looks
  // invalid to the tree verifier, so the virtual graph is empty and the
  // output is still a *valid* Π' solution (everything in the error regime).
  const Graph base = build::cycle(4);
  PaddedBuild pb = build_padded_instance_path(base, NeLabeling(base), 2, 3);
  PaddedInstance mislabeled = pb.instance;
  mislabeled.family = GadgetFamilyKind::kTree;
  const IdMap ids = shuffled_ids(mislabeled.graph, 5);
  const auto res = solve_pi_prime(mislabeled, det_leaf().solve, ids,
                                  mislabeled.graph.num_nodes());
  EXPECT_EQ(res.virtual_nodes, 0u);
  const SinklessOrientation pi;
  EXPECT_TRUE(check_pi_prime(mislabeled, pi, res.output).ok);
}

// ---- serialization fuzz -----------------------------------------------------------

class PaddedRoundTripFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PaddedRoundTripFuzz, BothFamiliesRoundTripExactly) {
  const int seed = GetParam();
  const Graph base =
      build::random_regular(8 + 2 * static_cast<std::size_t>(seed % 5), 3,
                            static_cast<std::uint64_t>(seed));
  NeLabeling base_input(base);
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    base_input.node[v] = static_cast<Label>(v * 7 % 5);
  }
  const bool path = seed % 2 == 0;
  const PaddedBuild pb =
      path ? build_padded_instance_path(base, base_input, 3, 2 + seed % 4)
           : build_padded_instance(base, base_input, 3, 3 + seed % 2);

  std::stringstream ss;
  io::write_padded_instance(ss, pb.instance);
  const PaddedInstance back = io::read_padded_instance(ss);
  EXPECT_EQ(back.family, pb.instance.family);
  EXPECT_EQ(back.gadget.index, pb.instance.gadget.index);
  EXPECT_EQ(back.gadget.port, pb.instance.gadget.port);
  EXPECT_EQ(back.gadget.center, pb.instance.gadget.center);
  EXPECT_EQ(back.gadget.half, pb.instance.gadget.half);
  EXPECT_EQ(back.gadget.vcolor, pb.instance.gadget.vcolor);
  EXPECT_EQ(back.gadget.delta, pb.instance.gadget.delta);
  EXPECT_EQ(back.port_edge, pb.instance.port_edge);
  EXPECT_EQ(back.pi_input, pb.instance.pi_input);

  // A second trip is byte-identical (canonical form).
  std::stringstream s1, s2;
  io::write_padded_instance(s1, pb.instance);
  io::write_padded_instance(s2, back);
  EXPECT_EQ(s1.str(), s2.str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaddedRoundTripFuzz, ::testing::Range(1, 13));

// ---- path-level port faults --------------------------------------------------------

TEST(PathPortFaults, DanglingPortGetsPortErr1) {
  // Remove one PortEdge by rebuilding without it: both ports it joined
  // must output PortErr2 (no incident PortEdge) per constraint 3.
  const Graph base = build::cycle(4);
  const PaddedBuild pb =
      build_padded_instance_path(base, NeLabeling(base), 2, 3);
  const Graph& g = pb.instance.graph;

  EdgeId drop = kNoEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (pb.instance.port_edge[e]) {
      drop = e;
      break;
    }
  }
  ASSERT_NE(drop, kNoEdge);
  const NodeId pu = g.endpoint(drop, 0);
  const NodeId pv = g.endpoint(drop, 1);

  GraphBuilder b(g.num_nodes());
  b.add_nodes(g.num_nodes());
  PaddedInstance cut;
  std::vector<EdgeId> kept;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (e == drop) continue;
    b.add_edge(g.endpoint(e, 0), g.endpoint(e, 1));
    kept.push_back(e);
  }
  cut.graph = std::move(b).build();
  cut.family = GadgetFamilyKind::kPath;
  cut.gadget = GadgetLabels(cut.graph);
  cut.gadget.delta = pb.instance.gadget.delta;
  cut.port_edge = EdgeMap<bool>(cut.graph, false);
  cut.pi_input = NeLabeling(cut.graph);
  for (NodeId v = 0; v < cut.graph.num_nodes(); ++v) {
    cut.gadget.index[v] = pb.instance.gadget.index[v];
    cut.gadget.port[v] = pb.instance.gadget.port[v];
    cut.gadget.center[v] = pb.instance.gadget.center[v];
    cut.gadget.vcolor[v] = pb.instance.gadget.vcolor[v];
    cut.pi_input.node[v] = pb.instance.pi_input.node[v];
  }
  for (EdgeId ne = 0; ne < cut.graph.num_edges(); ++ne) {
    const EdgeId oe = kept[ne];
    cut.port_edge[ne] = pb.instance.port_edge[oe];
    cut.pi_input.edge[ne] = pb.instance.pi_input.edge[oe];
    for (int side = 0; side < 2; ++side) {
      cut.gadget.half[HalfEdge{ne, side}] =
          pb.instance.gadget.half[HalfEdge{oe, side}];
      cut.pi_input.half[HalfEdge{ne, side}] =
          pb.instance.pi_input.half[HalfEdge{oe, side}];
    }
  }

  const IdMap ids = shuffled_ids(cut.graph, 6);
  const auto res =
      solve_pi_prime(cut, det_leaf().solve, ids, cut.graph.num_nodes());
  EXPECT_EQ(res.output.port_status[pu], kPortErr2);
  EXPECT_EQ(res.output.port_status[pv], kPortErr2);
  const SinklessOrientation pi;
  const auto chk = check_pi_prime(cut, pi, res.output);
  EXPECT_TRUE(chk.ok) << (chk.violations.empty() ? "?"
                                                 : chk.violations[0].second);
}

// ---- g1 witnesses (added for adversarial non-tree inputs) -------------------------

TEST(CenterWitness, VerifierCertifiesParentlessNodeWithoutCenter) {
  // A path-labeled gadget under the tree family: interior nodes violate g1
  // (Parent-less, no Center neighbor) and must carry kWCenterNone.
  const Graph base = build::cycle(4);
  const PaddedBuild pb =
      build_padded_instance_path(base, NeLabeling(base), 2, 3);
  PaddedInstance mis = pb.instance;
  mis.family = GadgetFamilyKind::kTree;
  const GadgetSubgraph gs = gadget_subgraph(mis);
  const NeVerifierResult ver = run_gadget_verifier_ne(gs.graph, gs.labels);
  EXPECT_TRUE(ver.found_error);
  bool saw_center_none = false;
  for (NodeId v = 0; v < gs.graph.num_nodes(); ++v) {
    if (ver.output.witness[v] == kWCenterNone) saw_center_none = true;
  }
  EXPECT_TRUE(saw_center_none);
  const auto chk = check_psi_ne(gs.graph, gs.labels, ver.output);
  EXPECT_TRUE(chk.ok) << (chk.violations.empty() ? "?"
                                                 : chk.violations[0].second);
}

TEST(CenterWitness, CannotBeForgedOnValidTreeGadget) {
  const GadgetInstance inst = build_gadget(3, 3);
  NeVerifierResult ver = run_gadget_verifier_ne(inst.graph, inst.labels);
  ASSERT_FALSE(ver.found_error);
  // Forge: the root of sub-gadget 1 claims it has no Center neighbor.
  NodeId root = kNoNode;
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v) {
    bool has_up = false, has_parent = false;
    for (int p = 0; p < inst.graph.degree(v); ++p) {
      const int l = inst.labels.half[inst.graph.incidence(v, p)];
      if (l == kHalfUp) has_up = true;
      if (l == kHalfParent) has_parent = true;
    }
    if (has_up && !has_parent && !inst.labels.center[v]) {
      root = v;
      break;
    }
  }
  ASSERT_NE(root, kNoNode);
  PsiNeOutput forged = ver.output;
  forged.kind[root] = kPsiError;
  forged.witness[root] = kWCenterNone;
  for (int p = 0; p < inst.graph.degree(root); ++p) {
    forged.mark[inst.graph.incidence(root, p)] = kMarkNoCenter;
  }
  // The Up edge leads to the center, so the no-center mark is a lie that
  // the edge constraint catches.
  EXPECT_FALSE(check_psi_ne(inst.graph, inst.labels, forged).ok);
}

}  // namespace
}  // namespace padlock
