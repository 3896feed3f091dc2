// Ψ for the path (linear, Δ)-gadget family: the error-pointer LCL, its
// verifier, and the node-edge-checkable refinement Ψ_G — the path-family
// counterparts of psi.hpp / verifier.hpp / ne_refinement.hpp.
//
// Outputs per node: Ok, Error, or exactly one pointer in
// {Right, Left, Up, Down_i}. Constraints:
//
//   1. Error iff the node's structural constraints (P1–P7) fail.
//   2. Pointer chains step as follows (each pointer requires the named
//      half label on an incident edge):
//        Right  -> {Error, Right}
//        Left   -> {Error, Left, Up}
//        Up     -> {Error, Down_j} with j != own Index
//        Down_i -> {Error, Right}
//   3. Ok and non-Ok never face each other across a gadget edge.
//
// Lemma 9 analogue: on a *valid* path gadget no all-error labeling exists —
// Right chains die at the port (which has no Right half and whose Left/Up
// output would break its left neighbor's Right rule), Left chains climb to
// the left end whose Up forces the center to answer with some Down_j, and
// every Down_j answer contradicts sub-path j's own Up pointer or dies at
// port j. The tests reproduce this with an exhaustive search.
//
// The verifier shares its decision core and round accounting with the tree
// family's (verifier.hpp): label_chain_reaches finds the Right/Left chains
// that reach an Error, and gadget_round_report charges every node its
// component's double-sweep eccentricity.
//
// The ne-refinement reuses PsiNeOutput. Path gadgets need only three
// witness kinds (no boundary masks, no chain claims — every structural
// fact is visible on a node or a single edge):
//   kWSelf      — own configuration violated (P1 domains/distinctness,
//                 P4, P5, P6);
//   kWEdge      — one marked half; the edge's input labels are
//                 inconsistent (P2/P3 reciprocity, index agreement,
//                 Up/Down/center facts, equal endpoint colors, self-loop);
//   kWColorPair — two halves marked with a color c whose far endpoints
//                 both carry input color c: impossible under a proper
//                 distance-2 coloring of a simple graph, so this certifies
//                 a parallel edge or a corrupted coloring (Fig. 7 device).
#pragma once

#include "gadget/ne_refinement.hpp"
#include "gadget/path_gadget.hpp"
#include "gadget/psi.hpp"
#include "gadget/verifier.hpp"
#include "local/engine.hpp"

namespace padlock {

/// Constant-radius check of a Ψ output against the path-structure labels.
PsiCheckResult check_path_psi(const Graph& g, const GadgetLabels& labels,
                              const PsiOutput& out,
                              std::size_t max_violations = 32);

/// The path-family verifier V: solves Ψ in O(component diameter) rounds —
/// O(d(n)) with d(n) = Θ(n) for this family.
VerifierResult run_path_verifier(const Graph& g, const GadgetLabels& labels);

/// Node and edge constraints of the path family's Ψ_G.
PsiNeCheckResult check_path_psi_ne(const Graph& g, const GadgetLabels& labels,
                                   const PsiNeOutput& out,
                                   std::size_t max_violations = 32);

/// V wrapped into Ψ_G form (witness selection + half marks).
NeVerifierResult run_path_verifier_ne(const Graph& g,
                                      const GadgetLabels& labels);

}  // namespace padlock
