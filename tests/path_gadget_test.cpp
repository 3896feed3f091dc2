#include <gtest/gtest.h>

#include <functional>

#include "core/hierarchy.hpp"
#include "gadget/path_psi.hpp"
#include "graph/builders.hpp"
#include "graph/metrics.hpp"
#include "lcl/problems/sinkless_orientation.hpp"

namespace padlock {
namespace {

const AlgoSpec& sinkless_leaf(const char* algo) {
  return AlgorithmRegistry::instance().algo("sinkless-orientation", algo);
}

// ---- builder ------------------------------------------------------------------

struct Shape {
  int delta;
  int length;
};

class PathBuildTest : public ::testing::TestWithParam<Shape> {};

TEST_P(PathBuildTest, ShapeAndLabels) {
  const auto [delta, length] = GetParam();
  const GadgetInstance inst = build_path_gadget(delta, length);
  EXPECT_EQ(inst.graph.num_nodes(), path_gadget_size(delta, length));
  EXPECT_EQ(inst.graph.num_edges(),
            static_cast<std::size_t>(delta) *
                static_cast<std::size_t>(length));
  EXPECT_EQ(static_cast<int>(inst.ports.size()), delta);
  EXPECT_TRUE(inst.labels.center[inst.center]);
  for (int i = 1; i <= delta; ++i) {
    const NodeId p = inst.ports[static_cast<std::size_t>(i - 1)];
    EXPECT_EQ(inst.labels.port[p], i);
    EXPECT_EQ(inst.labels.index[p], i);
    EXPECT_EQ(inst.graph.degree(p), 1);  // Left only
  }
  EXPECT_EQ(inst.graph.degree(inst.center), delta);
  // Port pairwise distance = 2 * length (down + up through the center).
  const NodeMap<int> d = bfs_distances(inst.graph, inst.ports[0]);
  for (std::size_t i = 1; i < inst.ports.size(); ++i) {
    EXPECT_EQ(d[inst.ports[i]], 2 * length);
  }
  EXPECT_EQ(diameter(inst.graph), delta >= 2 ? 2 * length : length);
}

TEST_P(PathBuildTest, ValidGadgetPassesStructure) {
  const auto [delta, length] = GetParam();
  const GadgetInstance inst = build_path_gadget(delta, length);
  const PathStructureReport rep =
      check_path_structure(inst.graph, inst.labels);
  EXPECT_TRUE(rep.all_ok) << (rep.violations.empty()
                                  ? "?"
                                  : rep.violations[0].second);
}

TEST_P(PathBuildTest, VerifierSaysOkInDiameterRounds) {
  const auto [delta, length] = GetParam();
  const GadgetInstance inst = build_path_gadget(delta, length);
  const VerifierResult res = run_path_verifier(inst.graph, inst.labels);
  EXPECT_FALSE(res.found_error);
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v) {
    EXPECT_EQ(res.output[v], kPsiOk);
  }
  // d(n) = Θ(n): the verifier pays (close to) the diameter.
  EXPECT_GE(res.report.rounds, length);
  EXPECT_LE(res.report.rounds, 2 * length + 2);
  // And the Ψ checker agrees with the all-Ok output.
  EXPECT_TRUE(check_path_psi(inst.graph, inst.labels, res.output).ok);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PathBuildTest,
    ::testing::Values(Shape{1, 2}, Shape{2, 2}, Shape{3, 2}, Shape{3, 5},
                      Shape{4, 9}, Shape{5, 17}),
    [](const auto& info) {
      return "d" + std::to_string(info.param.delta) + "L" +
             std::to_string(info.param.length);
    });

TEST(PathGadget, LengthForSizeRoundTrips) {
  for (const int delta : {2, 3, 4}) {
    for (const std::size_t target : {7u, 40u, 333u}) {
      const int L = path_length_for_size(delta, target);
      const std::size_t got = path_gadget_size(delta, L);
      EXPECT_GE(L, 2);
      // Within one sub-path of the target (plus the length-2 floor).
      EXPECT_LE(got, target + static_cast<std::size_t>(delta) + 1 +
                         2 * static_cast<std::size_t>(delta));
    }
  }
}

// ---- fault sensitivity ----------------------------------------------------------

using Mutator = std::function<void(GadgetInstance&)>;

struct FaultCase {
  const char* name;
  Mutator apply;
};

class PathFaultTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(PathFaultTest, VerifierProvesErrorAndCheckerAccepts) {
  GadgetInstance inst = build_path_gadget(3, 4);
  GetParam().apply(inst);
  const PathStructureReport rep =
      check_path_structure(inst.graph, inst.labels);
  ASSERT_FALSE(rep.all_ok) << "fault did not invalidate the gadget";

  const VerifierResult res = run_path_verifier(inst.graph, inst.labels);
  EXPECT_TRUE(res.found_error);
  // All nodes output error labels, none Ok (single component).
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v) {
    EXPECT_NE(res.output[v], kPsiOk) << "node " << v;
  }
  // The produced proof satisfies Ψ's constraints.
  const PsiCheckResult chk = check_path_psi(inst.graph, inst.labels,
                                            res.output);
  EXPECT_TRUE(chk.ok) << (chk.violations.empty() ? "?"
                                                 : chk.violations[0].second);

  // And the ne-refined form likewise.
  const NeVerifierResult ne = run_path_verifier_ne(inst.graph, inst.labels);
  EXPECT_TRUE(ne.found_error);
  const PsiNeCheckResult nchk =
      check_path_psi_ne(inst.graph, inst.labels, ne.output);
  EXPECT_TRUE(nchk.ok) << (nchk.violations.empty()
                               ? "?"
                               : nchk.violations[0].second);
}

GadgetInstance rebuild_with_extra_edge(const GadgetInstance& inst, NodeId a,
                                       NodeId b, int la, int lb) {
  GadgetInstance out;
  GraphBuilder gb(inst.graph.num_nodes());
  gb.add_nodes(inst.graph.num_nodes());
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    gb.add_edge(inst.graph.endpoint(e, 0), inst.graph.endpoint(e, 1));
  }
  const EdgeId extra = gb.add_edge(a, b);
  out.graph = std::move(gb).build();
  out.labels = GadgetLabels(out.graph);
  out.labels.delta = inst.labels.delta;
  for (NodeId v = 0; v < out.graph.num_nodes(); ++v) {
    out.labels.index[v] = inst.labels.index[v];
    out.labels.port[v] = inst.labels.port[v];
    out.labels.center[v] = inst.labels.center[v];
    out.labels.vcolor[v] = inst.labels.vcolor[v];
  }
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    for (int side = 0; side < 2; ++side) {
      out.labels.half[HalfEdge{e, side}] =
          inst.labels.half[HalfEdge{e, side}];
    }
  }
  out.labels.half[HalfEdge{extra, 0}] = la;
  out.labels.half[HalfEdge{extra, 1}] = lb;
  out.center = inst.center;
  out.ports = inst.ports;
  out.height = inst.height;
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Faults, PathFaultTest,
    ::testing::Values(
        FaultCase{"wrong_index",
                  [](GadgetInstance& i) { i.labels.index[2] = 2; }},
        FaultCase{"fake_port",
                  [](GadgetInstance& i) { i.labels.port[2] = 1; }},
        FaultCase{"dropped_port",
                  [](GadgetInstance& i) { i.labels.port[i.ports[0]] = 0; }},
        FaultCase{"corrupt_half",
                  [](GadgetInstance& i) {
                    // First Right half becomes Left: reciprocity breaks.
                    for (EdgeId e = 0; e < i.graph.num_edges(); ++e) {
                      if (i.labels.half[HalfEdge{e, 0}] == kHalfRight) {
                        i.labels.half[HalfEdge{e, 0}] = kHalfLeft;
                        return;
                      }
                    }
                  }},
        FaultCase{"center_unmarked",
                  [](GadgetInstance& i) { i.labels.center[i.center] = false; }},
        FaultCase{"color_clash",
                  [](GadgetInstance& i) {
                    const NodeId u = i.graph.neighbor(i.center, 0);
                    const NodeId w = i.graph.neighbor(i.center, 1);
                    i.labels.vcolor[w] = i.labels.vcolor[u];
                  }},
        FaultCase{"self_loop",
                  [](GadgetInstance& i) {
                    i = rebuild_with_extra_edge(i, 2, 2, kHalfRight,
                                                kHalfLeft);
                  }},
        FaultCase{"parallel_edge",
                  [](GadgetInstance& i) {
                    const NodeId u = i.graph.endpoint(1, 0);
                    const NodeId v = i.graph.endpoint(1, 1);
                    i = rebuild_with_extra_edge(i, u, v, kHalfUp,
                                                down_label(1));
                  }},
        FaultCase{"cross_subpath_edge",
                  [](GadgetInstance& i) {
                    i = rebuild_with_extra_edge(i, i.ports[0], i.ports[1],
                                                kHalfRight, kHalfLeft);
                  }}),
    [](const auto& info) { return info.param.name; });

// ---- Lemma 9 analogue: no error proof on a valid gadget --------------------------

TEST(PathPsi, NoValidErrorLabelingOnValidGadget) {
  const GadgetInstance inst = build_path_gadget(2, 2);  // 5 nodes
  const Graph& g = inst.graph;
  const std::size_t n = g.num_nodes();

  // Candidate outputs per node: Error or one pointer per incident half.
  std::vector<std::vector<int>> options(n);
  for (NodeId v = 0; v < n; ++v) {
    options[v].push_back(kPsiError);
    for (int p = 0; p < g.degree(v); ++p) {
      options[v].push_back(
          psi_pointer(inst.labels.half[g.incidence(v, p)]));
    }
  }
  // Exhaustive product search.
  PsiOutput out(n, kPsiError);
  std::function<bool(std::size_t)> search = [&](std::size_t at) -> bool {
    if (at == n) return check_path_psi(g, inst.labels, out).ok;
    for (const int o : options[at]) {
      out[static_cast<NodeId>(at)] = o;
      if (search(at + 1)) return true;
    }
    return false;
  };
  EXPECT_FALSE(search(0)) << "found an error labeling on a valid gadget";
}

TEST(PathPsi, WrapAroundImpostorAdmitsAllRightProof) {
  // A Right/Left cycle: locally flawless, globally not a gadget. Everyone
  // pointing Right is a legal all-error labeling (harmless: no ports).
  const std::size_t n = 6;
  GraphBuilder b(n);
  b.add_nodes(n);
  GadgetLabels labels;
  std::vector<EdgeId> edges;
  for (NodeId v = 0; v < n; ++v) {
    edges.push_back(b.add_edge(v, static_cast<NodeId>((v + 1) % n)));
  }
  Graph g = std::move(b).build();
  labels = GadgetLabels(g);
  labels.delta = 3;
  for (NodeId v = 0; v < n; ++v) {
    labels.index[v] = 1;
    labels.vcolor[v] = static_cast<int>(v % 3) + 1;
  }
  // Proper distance-2 coloring on a 6-cycle needs care: 1,2,3,1,2,3 works.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    labels.half[HalfEdge{e, 0}] = kHalfRight;
    labels.half[HalfEdge{e, 1}] = kHalfLeft;
  }
  const PathStructureReport rep = check_path_structure(g, labels);
  EXPECT_TRUE(rep.all_ok) << "impostor should be locally flawless";

  PsiOutput all_right(n, psi_pointer(kHalfRight));
  EXPECT_TRUE(check_path_psi(g, labels, all_right).ok);
  // All-Ok is also legal (the paper allows claiming Ok on invalid gadgets).
  PsiOutput all_ok(n, kPsiOk);
  EXPECT_TRUE(check_path_psi(g, labels, all_ok).ok);
}

// ---- Ψ checker rejects broken proofs --------------------------------------------

TEST(PathPsi, CheckerRejectsErrorOnValidNode) {
  const GadgetInstance inst = build_path_gadget(3, 3);
  PsiOutput out(inst.graph.num_nodes(), kPsiOk);
  out[1] = kPsiError;
  EXPECT_FALSE(check_path_psi(inst.graph, inst.labels, out).ok);
}

TEST(PathPsi, CheckerRejectsDanglingPointer) {
  GadgetInstance inst = build_path_gadget(3, 3);
  inst.labels.index[2] = 2;  // invalidate
  const VerifierResult res = run_path_verifier(inst.graph, inst.labels);
  PsiOutput broken = res.output;
  // Point the port of sub-path 3 Right — it has no Right half.
  broken[inst.ports[2]] = psi_pointer(kHalfRight);
  EXPECT_FALSE(check_path_psi(inst.graph, inst.labels, broken).ok);
}

TEST(PathPsi, NeCheckerRejectsForgedWitness) {
  const GadgetInstance inst = build_path_gadget(3, 3);
  NeVerifierResult ne = run_path_verifier_ne(inst.graph, inst.labels);
  ASSERT_FALSE(ne.found_error);
  PsiNeOutput forged = ne.output;
  forged.kind[2] = kPsiError;
  forged.witness[2] = kWSelf;  // but node 2's own config is fine
  EXPECT_FALSE(check_path_psi_ne(inst.graph, inst.labels, forged).ok);
  forged.witness[2] = kWEdge;
  forged.mark[inst.graph.incidence(2, 0)] = kMarkEdge;
  EXPECT_FALSE(check_path_psi_ne(inst.graph, inst.labels, forged).ok);
}

// ---- padding integration ---------------------------------------------------------

TEST(PathPadding, BuildAndSolveSinklessOnPathPaddedGraph) {
  const Graph base = build::high_girth_regular(24, 3, 6, 3);
  const NeLabeling base_input(base);
  const PaddedBuild pb = build_padded_instance_path(base, base_input, 3, 5);
  EXPECT_EQ(pb.instance.family, GadgetFamilyKind::kPath);
  EXPECT_EQ(pb.instance.graph.num_nodes(),
            base.num_nodes() * path_gadget_size(3, 5));

  const IdMap ids = shuffled_ids(pb.instance.graph, 5);
  const auto res =
      solve_pi_prime(pb.instance, sinkless_leaf("short-cycle-det"), ids,
                     pb.instance.graph.num_nodes());
  EXPECT_EQ(res.virtual_nodes, base.num_nodes());
  EXPECT_EQ(res.virtual_edges, base.num_edges());
  // Path gadgets stretch by Θ(gadget diameter) = Θ(2 * length).
  EXPECT_GE(res.stretch, 5);

  const SinklessOrientation pi;
  const auto chk = check_pi_prime(pb.instance, pi, res.output);
  EXPECT_TRUE(chk.ok) << (chk.violations.empty() ? "?"
                                                 : chk.violations[0].second);
}

TEST(PathPadding, RandomizedLeafAlsoValid) {
  const Graph base = build::high_girth_regular(24, 3, 6, 9);
  const PaddedBuild pb =
      build_padded_instance_path(base, NeLabeling(base), 3, 4);
  const IdMap ids = shuffled_ids(pb.instance.graph, 6);
  const auto res =
      solve_pi_prime(pb.instance, sinkless_leaf("propose-repair"), ids,
                     pb.instance.graph.num_nodes(), 99);
  const SinklessOrientation pi;
  EXPECT_TRUE(check_pi_prime(pb.instance, pi, res.output).ok);
}

TEST(PathPadding, CorruptedGadgetQuarantined) {
  const Graph base = build::cycle(6);
  PaddedBuild pb = build_padded_instance_path(base, NeLabeling(base), 2, 4);
  // Corrupt one gadget: flip an index deep inside gadget of base node 0.
  const NodeId inside = pb.meta.center[0] == 0 ? 1 : 0;
  pb.instance.gadget.index[inside] =
      pb.instance.gadget.index[inside] == 1 ? 2 : 1;

  const IdMap ids = shuffled_ids(pb.instance.graph, 7);
  const auto res =
      solve_pi_prime(pb.instance, sinkless_leaf("short-cycle-det"), ids,
                     pb.instance.graph.num_nodes());
  // One gadget dropped from the virtual graph.
  EXPECT_EQ(res.virtual_nodes, base.num_nodes() - 1);
  const SinklessOrientation pi;
  const auto chk = check_pi_prime(pb.instance, pi, res.output);
  EXPECT_TRUE(chk.ok) << (chk.violations.empty() ? "?"
                                                 : chk.violations[0].second);
}

TEST(PathHierarchy, EncodeDecodeCarriesFamily) {
  const Graph base = build::cycle(4);
  const PaddedBuild pb =
      build_padded_instance_path(base, NeLabeling(base), 2, 3);
  const NeLabeling enc = encode_padded_instance(pb.instance);
  const PaddedInstance back =
      decode_padded_instance(pb.instance.graph, enc);
  EXPECT_EQ(back.family, GadgetFamilyKind::kPath);
  EXPECT_EQ(back.gadget.index, pb.instance.gadget.index);
  EXPECT_EQ(back.gadget.port, pb.instance.gadget.port);
  EXPECT_EQ(back.gadget.half, pb.instance.gadget.half);
  EXPECT_EQ(back.port_edge, pb.instance.port_edge);

  const PaddedBuild tree = build_padded_instance(base, NeLabeling(base), 2, 3);
  const PaddedInstance tback = decode_padded_instance(
      tree.instance.graph, encode_padded_instance(tree.instance));
  EXPECT_EQ(tback.family, GadgetFamilyKind::kTree);
}

TEST(PathHierarchy, TwoLevelSolveDetAndRand) {
  const Hierarchy h = build_path_hierarchy(2, 20, 17);
  EXPECT_EQ(h.padded.back().instance.family, GadgetFamilyKind::kPath);
  const auto det = solve_hierarchy(h, sinkless_leaf("short-cycle-det"), 3);
  EXPECT_TRUE(det.leaf_output_sinkless);
  EXPECT_GT(det.rounds, det.leaf_rounds);
  const auto rnd = solve_hierarchy(h, sinkless_leaf("propose-repair"), 4);
  EXPECT_TRUE(rnd.leaf_output_sinkless);
  // Path stretch is the gadget diameter, far above the tree family's log.
  EXPECT_GE(det.stretch_per_level[0], 5);
}

TEST(PathHierarchy, ThreeLevelSolveStillValid) {
  const Hierarchy h = build_path_hierarchy(3, 8, 23);
  const auto det = solve_hierarchy(h, sinkless_leaf("short-cycle-det"), 5);
  EXPECT_TRUE(det.leaf_output_sinkless);
  EXPECT_EQ(h.padded.size(), 2u);
  EXPECT_EQ(h.padded[0].instance.family, GadgetFamilyKind::kPath);
  EXPECT_EQ(h.padded[1].instance.family, GadgetFamilyKind::kPath);
}

}  // namespace
}  // namespace padlock
