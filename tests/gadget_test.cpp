#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "algo/color_reduce.hpp"
#include "gadget/constraints.hpp"
#include "gadget/faults.hpp"
#include "gadget/gadget.hpp"
#include "gadget/ne_refinement.hpp"
#include "gadget/psi.hpp"
#include "gadget/verifier.hpp"
#include "graph/builders.hpp"
#include "graph/metrics.hpp"

namespace padlock {
namespace {

// ---- Builders ----------------------------------------------------------------

class GadgetBuildTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GadgetBuildTest, SizeAndShape) {
  const auto [delta, height] = GetParam();
  const auto inst = build_gadget(delta, height);
  EXPECT_EQ(inst.graph.num_nodes(), gadget_size(delta, height));
  EXPECT_EQ(static_cast<int>(inst.ports.size()), delta);
  EXPECT_EQ(inst.graph.degree(inst.center), delta);
  for (int s = 1; s <= delta; ++s) {
    const NodeId port = inst.ports[static_cast<std::size_t>(s - 1)];
    EXPECT_EQ(inst.labels.port[port], s);
    EXPECT_EQ(inst.labels.index[port], s);
  }
}

TEST_P(GadgetBuildTest, StructurallyValid) {
  const auto [delta, height] = GetParam();
  const auto inst = build_gadget(delta, height);
  const auto report = check_gadget_structure(inst.graph, inst.labels);
  EXPECT_TRUE(report.all_ok)
      << (report.violations.empty()
              ? "?"
              : std::to_string(report.violations[0].first) + ": " +
                    report.violations[0].second);
}

TEST_P(GadgetBuildTest, DiameterIsLogarithmic) {
  const auto [delta, height] = GetParam();
  const auto inst = build_gadget(delta, height);
  // Diameter <= 2*(height-1 tree hops + height-1 lateral hops) + 2 center
  // hops; the point is O(height) = O(log size).
  EXPECT_LE(diameter(inst.graph), 4 * height + 2);
  // Pairwise port distances are Θ(height).
  const auto d = bfs_distances(inst.graph, inst.ports[0]);
  for (NodeId p : inst.ports) EXPECT_LE(d[p], 4 * height + 2);
  if (delta >= 2) EXPECT_GE(d[inst.ports[1]], height - 1);
}

TEST_P(GadgetBuildTest, ColoringIsDistance4) {
  const auto [delta, height] = GetParam();
  const auto inst = build_gadget(delta, height);
  EXPECT_TRUE(is_distance_coloring(inst.graph, inst.labels.vcolor, 4));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GadgetBuildTest,
                         ::testing::Values(std::tuple{1, 3}, std::tuple{2, 3},
                                           std::tuple{3, 3}, std::tuple{3, 4},
                                           std::tuple{2, 6}, std::tuple{4, 5}));

TEST(GadgetBuild, HeightForSize) {
  EXPECT_EQ(gadget_height_for_size(3, 10), 2);
  EXPECT_GE(gadget_height_for_size(3, 1000), 8);
  EXPECT_GE(gadget_size(3, gadget_height_for_size(3, 5000)), 5000u);
  // The smallest height >= 2 whose size reaches the target.
  for (const int delta : {1, 2, 3, 5, 7}) {
    for (std::size_t target = 0; target <= 3000; ++target) {
      const int h = gadget_height_for_size(delta, target);
      ASSERT_GE(gadget_size(delta, h), target) << delta << " " << target;
      ASSERT_TRUE(h == 2 || gadget_size(delta, h - 1) < target)
          << delta << " " << target;
    }
  }
}

// Sizes past 64 bits saturate, and the height search ends for any target.
TEST(GadgetBuild, SizeSaturatesAndHeightSearchTerminates) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(gadget_size(3, 64), kMax);
  EXPECT_EQ(gadget_size(5, 62), kMax);
  EXPECT_EQ(gadget_size(1, 63), std::size_t{1} << 63);
  for (const int delta : {1, 3, 5, 64}) {
    const int h = gadget_height_for_size(delta, kMax);
    EXPECT_LE(h, 64);
    EXPECT_EQ(gadget_size(delta, h), kMax);
  }
}

TEST(GadgetBuild, FollowLabelNavigates) {
  const auto inst = build_gadget(2, 3);
  const NodeId root1 = follow_label(inst.graph, inst.labels, inst.center,
                                    down_label(1));
  ASSERT_NE(root1, kNoNode);
  EXPECT_EQ(inst.labels.index[root1], 1);
  EXPECT_EQ(follow_label(inst.graph, inst.labels, root1, kHalfUp),
            inst.center);
  const NodeId lc = follow_label(inst.graph, inst.labels, root1, kHalfLChild);
  const NodeId rc = follow_label(inst.graph, inst.labels, root1, kHalfRChild);
  ASSERT_NE(lc, kNoNode);
  ASSERT_NE(rc, kNoNode);
  EXPECT_EQ(follow_label(inst.graph, inst.labels, lc, kHalfRight), rc);
}

// ---- Fault detection (Lemmas 7/8: constraints characterize validity) ---------

class FaultTest : public ::testing::TestWithParam<GadgetFault> {};

TEST_P(FaultTest, StructureCheckerCatchesFault) {
  const auto base = build_gadget(3, 4);
  for (std::uint64_t seed : {1ull, 2ull, 5ull}) {
    const auto bad = inject_fault(base, GetParam(), seed);
    const auto report = check_gadget_structure(bad.graph, bad.labels);
    EXPECT_FALSE(report.all_ok) << fault_name(GetParam());
  }
}

TEST_P(FaultTest, VerifierProducesValidErrorLabeling) {
  const auto base = build_gadget(3, 4);
  for (std::uint64_t seed : {1ull, 3ull}) {
    const auto bad = inject_fault(base, GetParam(), seed);
    const auto res = run_gadget_verifier(bad.graph, bad.labels);
    EXPECT_TRUE(res.found_error) << fault_name(GetParam());
    const auto chk = check_psi(bad.graph, bad.labels, res.output);
    EXPECT_TRUE(chk.ok) << fault_name(GetParam()) << ": "
                        << (chk.violations.empty()
                                ? "?"
                                : chk.violations[0].second);
  }
}

TEST_P(FaultTest, NeVerifierProducesValidProof) {
  const auto base = build_gadget(3, 4);
  for (std::uint64_t seed : {1ull, 3ull}) {
    const auto bad = inject_fault(base, GetParam(), seed);
    const auto res = run_gadget_verifier_ne(bad.graph, bad.labels);
    EXPECT_TRUE(res.found_error) << fault_name(GetParam());
    const auto chk = check_psi_ne(bad.graph, bad.labels, res.output);
    EXPECT_TRUE(chk.ok) << fault_name(GetParam()) << ": "
                        << (chk.violations.empty()
                                ? "?"
                                : chk.violations[0].second);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFaults, FaultTest,
                         ::testing::ValuesIn(all_gadget_faults()),
                         [](const auto& info) {
                           auto s = fault_name(info.param);
                           for (auto& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

// ---- Verifier on valid gadgets ------------------------------------------------

class VerifierValidTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(VerifierValidTest, AllOkOnValidGadget) {
  const auto [delta, height] = GetParam();
  const auto inst = build_gadget(delta, height);
  const auto res = run_gadget_verifier(inst.graph, inst.labels);
  EXPECT_FALSE(res.found_error);
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
    EXPECT_EQ(res.output[v], kPsiOk);
  EXPECT_TRUE(check_psi(inst.graph, inst.labels, res.output).ok);
  // O(log n) rounds: the report is bounded by the diameter.
  EXPECT_LE(res.report.rounds, 4 * height + 2);

  const auto ne = run_gadget_verifier_ne(inst.graph, inst.labels);
  EXPECT_TRUE(check_psi_ne(inst.graph, inst.labels, ne.output).ok);
}

INSTANTIATE_TEST_SUITE_P(Shapes, VerifierValidTest,
                         ::testing::Values(std::tuple{2, 3}, std::tuple{3, 3},
                                           std::tuple{3, 5}, std::tuple{4, 4}));

// ---- Cheating is impossible ----------------------------------------------------

TEST(PsiChecker, RejectsErrorClaimOnValidGadget) {
  const auto inst = build_gadget(2, 3);
  PsiOutput out(inst.graph, kPsiOk);
  out[inst.center] = kPsiError;
  EXPECT_FALSE(check_psi(inst.graph, inst.labels, out).ok);
}

TEST(PsiChecker, RejectsOkOnViolatedNode) {
  const auto base = build_gadget(2, 3);
  const auto bad = inject_fault(base, GadgetFault::kRelabelHalf, 1);
  PsiOutput out(bad.graph, kPsiOk);
  EXPECT_FALSE(check_psi(bad.graph, bad.labels, out).ok);
}

TEST(PsiChecker, RejectsDanglingPointer) {
  const auto inst = build_gadget(2, 3);
  PsiOutput out(inst.graph, kPsiOk);
  // Every node claims a Right-pointer: chains end at nodes without Right
  // edges or at Ok nodes -> must be rejected.
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
    out[v] = psi_pointer(kHalfRight);
  EXPECT_FALSE(check_psi(inst.graph, inst.labels, out).ok);
}

// Lemma 9, reproduced as an exhaustive CSP search: on a *valid* gadget
// there is NO assignment of error labels (Error / pointers, no Ok) that
// satisfies the Ψ constraints. Backtracking with forward pruning over the
// per-node candidate pointer sets.
bool exists_valid_error_labeling(const GadgetInstance& inst) {
  const Graph& g = inst.graph;
  const GadgetLabels& labels = inst.labels;
  const auto n = g.num_nodes();

  // Per-node candidate outputs. Error is only available at structurally
  // violated nodes — on a valid gadget, nowhere.
  std::vector<std::vector<int>> cand(n);
  for (NodeId v = 0; v < n; ++v) {
    if (!node_structure_ok(g, labels, v)) cand[v].push_back(kPsiError);
    if (labels.center[v]) {
      for (int i = 1; i <= labels.delta; ++i)
        if (follow_label(g, labels, v, down_label(i)) != kNoNode)
          cand[v].push_back(psi_pointer(down_label(i)));
    } else {
      for (int l : {kHalfRight, kHalfLeft, kHalfParent, kHalfRChild, kHalfUp})
        if (follow_label(g, labels, v, l) != kNoNode)
          cand[v].push_back(psi_pointer(l));
    }
  }

  std::vector<int> out(n, -1);
  // The pairwise compatibility is exactly check_psi's pointer rule.
  auto compatible = [&](NodeId v, int o) {
    if (!is_psi_pointer(o)) return true;
    const int via = psi_pointer_label(o);
    const NodeId w = follow_label(g, labels, v, via);
    if (w == kNoNode) return false;
    if (out[w] == -1) return true;  // undecided
    PsiOutput tmp(g, kPsiOk);
    // Cheap local re-check: reuse check target rule via check_psi on a
    // two-node assignment is overkill; restate the transition inline.
    const int t = out[w];
    if (t == kPsiError) return true;
    if (!is_psi_pointer(t)) return false;
    const int tl = psi_pointer_label(t);
    switch (via) {
      case kHalfRight: return tl == kHalfRight;
      case kHalfLeft: return tl == kHalfLeft;
      case kHalfParent:
        return tl == kHalfParent || tl == kHalfLeft || tl == kHalfRight ||
               tl == kHalfUp;
      case kHalfRChild:
        return tl == kHalfRChild || tl == kHalfRight || tl == kHalfLeft;
      case kHalfUp:
        return is_down_label(tl) && down_index(tl) != labels.index[v];
      default:
        if (is_down_label(via)) return tl == kHalfRChild;
        return false;
    }
  };
  // Also check incoming compatibility: assignments already made that point
  // at v must accept v's new label.
  auto incoming_ok = [&](NodeId v, int o) {
    for (int p = 0; p < g.degree(v); ++p) {
      const HalfEdge h = g.incidence(v, p);
      const NodeId w = g.node_across(h);
      if (out[w] == -1 || !is_psi_pointer(out[w])) continue;
      const int via = psi_pointer_label(out[w]);
      if (follow_label(g, labels, w, via) != v) continue;
      const int save = out[v];
      out[v] = o;
      const bool ok = compatible(w, out[w]);
      out[v] = save;
      if (!ok) return false;
    }
    return true;
  };

  std::function<bool(NodeId)> assign = [&](NodeId v) -> bool {
    if (v == n) return true;
    for (int o : cand[v]) {
      if (!compatible(v, o) || !incoming_ok(v, o)) continue;
      out[v] = o;
      if (assign(v + 1)) return true;
      out[v] = -1;
    }
    return false;
  };
  return assign(0);
}

class Lemma9Test : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Lemma9Test, NoErrorLabelingOnValidGadget) {
  const auto [delta, height] = GetParam();
  EXPECT_FALSE(exists_valid_error_labeling(build_gadget(delta, height)));
}

INSTANTIATE_TEST_SUITE_P(SmallGadgets, Lemma9Test,
                         ::testing::Values(std::tuple{1, 3}, std::tuple{2, 2},
                                           std::tuple{2, 3}, std::tuple{3, 2},
                                           std::tuple{3, 3}));

TEST(Lemma9, ErrorLabelingExistsOnInvalidGadget) {
  const auto base = build_gadget(2, 3);
  const auto bad = inject_fault(base, GadgetFault::kSwapSiblings, 1);
  GadgetInstance inst{bad.graph, bad.labels, bad.center, bad.ports,
                      bad.height};
  EXPECT_TRUE(exists_valid_error_labeling(inst));
}

// ---- Ψ_G specifics --------------------------------------------------------------

TEST(PsiNe, CheaterCannotFakeColorPair) {
  const auto inst = build_gadget(2, 3);
  auto res = run_gadget_verifier_ne(inst.graph, inst.labels);
  // Claim a color-pair error at the center with bogus marks.
  res.output.kind[inst.center] = kPsiError;
  res.output.witness[inst.center] = kWColorPair;
  const auto h0 = inst.graph.incidence(inst.center, 0);
  const auto h1 = inst.graph.incidence(inst.center, 1);
  res.output.mark[h0] = 1;
  res.output.mark[h1] = 1;
  EXPECT_FALSE(check_psi_ne(inst.graph, inst.labels, res.output).ok);
}

TEST(PsiNe, CheaterCannotFakeChainClaim) {
  const auto inst = build_gadget(2, 3);
  auto res = run_gadget_verifier_ne(inst.graph, inst.labels);
  // Find a node with a real 2c walk and corrupt its claim.
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v) {
    if (res.output.claims[v][kPLcRPar] == kNoClaim) continue;
    res.output.kind[v] = kPsiError;
    res.output.witness[v] = kWChain2c;
    res.output.claims[v][kPLcRPar] = inst.labels.vcolor[v] + 1000;
    break;
  }
  EXPECT_FALSE(check_psi_ne(inst.graph, inst.labels, res.output).ok);
}

TEST(PsiNe, MaskMustMatchReality) {
  const auto inst = build_gadget(2, 3);
  auto res = run_gadget_verifier_ne(inst.graph, inst.labels);
  res.output.mask[inst.ports[0]] ^= 1;
  EXPECT_FALSE(check_psi_ne(inst.graph, inst.labels, res.output).ok);
}

TEST(PsiNe, WitnessSelectionCoversEveryFault) {
  const auto base = build_gadget(3, 4);
  for (GadgetFault f : all_gadget_faults()) {
    const auto bad = inject_fault(base, f, 2);
    // The ne-verifier asserts internally that every violated node finds a
    // witness; reaching here alive is the point.
    const auto res = run_gadget_verifier_ne(bad.graph, bad.labels);
    EXPECT_TRUE(res.found_error) << fault_name(f);
  }
}

// ---- Multi-component inputs -----------------------------------------------------

TEST(Verifier, MixedComponentsJudgedIndependently) {
  // One valid and one invalid gadget in a single (disconnected) graph.
  const auto good = build_gadget(2, 3);
  const auto bad = inject_fault(build_gadget(2, 3), GadgetFault::kWrongIndex, 1);

  GraphBuilder b;
  b.add_nodes(good.graph.num_nodes() + bad.graph.num_nodes());
  const NodeId off = static_cast<NodeId>(good.graph.num_nodes());
  for (EdgeId e = 0; e < good.graph.num_edges(); ++e)
    b.add_edge(good.graph.endpoint(e, 0), good.graph.endpoint(e, 1));
  for (EdgeId e = 0; e < bad.graph.num_edges(); ++e)
    b.add_edge(off + bad.graph.endpoint(e, 0), off + bad.graph.endpoint(e, 1));
  Graph g = std::move(b).build();
  GadgetLabels labels(g);
  labels.delta = 2;
  for (NodeId v = 0; v < good.graph.num_nodes(); ++v) {
    labels.index[v] = good.labels.index[v];
    labels.port[v] = good.labels.port[v];
    labels.center[v] = good.labels.center[v];
    labels.vcolor[v] = good.labels.vcolor[v];
  }
  for (NodeId v = 0; v < bad.graph.num_nodes(); ++v) {
    labels.index[off + v] = bad.labels.index[v];
    labels.port[off + v] = bad.labels.port[v];
    labels.center[off + v] = bad.labels.center[v];
    labels.vcolor[off + v] = bad.labels.vcolor[v];
  }
  for (EdgeId e = 0; e < good.graph.num_edges(); ++e)
    for (int s = 0; s < 2; ++s)
      labels.half[HalfEdge{e, s}] = good.labels.half[HalfEdge{e, s}];
  const auto moff = static_cast<EdgeId>(good.graph.num_edges());
  for (EdgeId e = 0; e < bad.graph.num_edges(); ++e)
    for (int s = 0; s < 2; ++s)
      labels.half[HalfEdge{moff + e, s}] = bad.labels.half[HalfEdge{e, s}];

  const auto res = run_gadget_verifier(g, labels);
  EXPECT_TRUE(res.found_error);
  for (NodeId v = 0; v < off; ++v) EXPECT_EQ(res.output[v], kPsiOk);
  bool any_err = false;
  for (NodeId v = off; v < g.num_nodes(); ++v) any_err |= res.output[v] != kPsiOk;
  EXPECT_TRUE(any_err);
  EXPECT_TRUE(check_psi(g, labels, res.output).ok);
}

// ---- The shared Ψ core: chain reachability and the round report --------------

/// `n` nodes and one edge per arc (u, v), labeled `label` at u and None at
/// v, so follow_label(u, label) walks the arcs.
struct LabelChain {
  Graph g;
  GadgetLabels labels;
};
LabelChain label_chain(std::size_t n,
                       const std::vector<std::pair<NodeId, NodeId>>& arcs,
                       int label = kHalfRight) {
  GraphBuilder b;
  b.add_nodes(n);
  for (const auto& [u, v] : arcs) b.add_edge(u, v);
  LabelChain c{std::move(b).build(), {}};
  c.labels = GadgetLabels(c.g);
  for (EdgeId e = 0; e < c.g.num_edges(); ++e)
    c.labels.half[HalfEdge{e, 0}] = label;
  return c;
}

NodeMap<bool> node_set(std::size_t n, const std::vector<NodeId>& members) {
  NodeMap<bool> set(n, false);
  for (const NodeId v : members) set[v] = true;
  return set;
}

std::vector<bool> as_vector(const NodeMap<bool>& m) {
  return {m.begin(), m.end()};
}

TEST(LabelChainReaches, RhoWalkIntoTargetFreeCycleReachesNothing) {
  // 0 -> 1 -> 2 -> 3 -> 4 -> 2; node 5 is a target nobody steps onto.
  const auto c = label_chain(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 2}});
  const auto r = label_chain_reaches(c.g, c.labels, node_set(6, {5}),
                                     kHalfRight);
  EXPECT_EQ(as_vector(r), std::vector<bool>(6, false));
}

TEST(LabelChainReaches, TargetOnTheTailButNotOnTheCycle) {
  // 0 -> 1 -> 2 -> 3 -> 1 is a cycle; 4 -> 5 -> 0 enters it, and 5 is a
  // target. Only 4 steps onto 5; 5's own walk ends in the cycle.
  const auto c =
      label_chain(6, {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {4, 5}, {5, 0}});
  const auto r = label_chain_reaches(c.g, c.labels, node_set(6, {5}),
                                     kHalfRight);
  EXPECT_EQ(as_vector(r),
            (std::vector<bool>{false, false, false, false, true, false}));
}

TEST(LabelChainReaches, TargetStartIsDecidedByItsOwnWalk) {
  // Cycle 0 -> 1 -> 2 -> 0 with target 1: every member reaches 1, the
  // target too (it walks around to itself). Target 3 -> 4 -> dead end
  // reaches no target.
  const auto c = label_chain(5, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  const auto r = label_chain_reaches(c.g, c.labels, node_set(5, {1, 3}),
                                     kHalfRight);
  EXPECT_EQ(as_vector(r),
            (std::vector<bool>{true, true, true, false, false}));
}

TEST(LabelChainReaches, AmbiguousStepEndsTheWalk) {
  // 0 has two Right halves (to targets 1 and 2): follow_label returns
  // kNoNode, so neither 0 nor 3 -> 0 reaches a target; 4 -> 1 does.
  const auto c = label_chain(5, {{0, 1}, {0, 2}, {3, 0}, {4, 1}});
  ASSERT_EQ(follow_label(c.g, c.labels, 0, kHalfRight), kNoNode);
  const auto r = label_chain_reaches(c.g, c.labels, node_set(5, {1, 2}),
                                     kHalfRight);
  EXPECT_EQ(as_vector(r),
            (std::vector<bool>{false, false, false, false, true}));
}

TEST(LabelChainReaches, FollowsOnlyTheGivenLabel) {
  const auto c = label_chain(3, {{0, 1}, {1, 2}}, kHalfParent);
  const auto targets = node_set(3, {2});
  EXPECT_EQ(as_vector(label_chain_reaches(c.g, c.labels, targets,
                                          kHalfParent)),
            (std::vector<bool>{true, true, false}));
  EXPECT_EQ(as_vector(label_chain_reaches(c.g, c.labels, targets,
                                          kHalfRight)),
            std::vector<bool>(3, false));
}

TEST(GadgetRoundReport, DisjointPathsAndTreesGetExactEccentricities) {
  // Components of different sizes and shapes in one graph: a lone node, a
  // single edge, paths, binary trees and a star, in mixed order.
  std::vector<Graph> parts;
  parts.push_back(build::complete_binary_tree(4));
  parts.push_back(build::path(1));
  parts.push_back(build::path(9));
  parts.push_back(build::path(2));
  parts.push_back(build::complete_binary_tree(2));
  GraphBuilder star;
  star.add_nodes(6);
  for (NodeId leaf = 0; leaf < 5; ++leaf) star.add_edge(leaf, 5);
  parts.push_back(std::move(star).build());
  parts.push_back(build::path(4));
  GraphBuilder b;
  for (const Graph& part : parts) {
    const NodeId off = b.add_nodes(part.num_nodes());
    for (EdgeId e = 0; e < part.num_edges(); ++e)
      b.add_edge(off + part.endpoint(e, 0), off + part.endpoint(e, 1));
  }
  const Graph g = std::move(b).build();
  ASSERT_EQ(connected_components(g).count, static_cast<int>(parts.size()));

  const RoundReport report = gadget_round_report(g);
  int max_ecc = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(report.node_rounds[v], eccentricity(g, v)) << "node " << v;
    max_ecc = std::max(max_ecc, eccentricity(g, v));
  }
  EXPECT_EQ(report.rounds, max_ecc);
  EXPECT_EQ(report.rounds, 8);  // the 9-node path
}

TEST(GadgetRoundReport, EmptyGraph) {
  const RoundReport report = gadget_round_report(Graph{});
  EXPECT_EQ(report.rounds, 0);
  EXPECT_EQ(report.node_rounds.size(), 0u);
}

}  // namespace
}  // namespace padlock
