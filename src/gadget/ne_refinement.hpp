// Ψ_G: the node-edge-checkable refinement of Ψ (§4.6 of the paper).
//
// Ψ's constraints involve constant-radius walks, which is fine for an LCL
// but not yet "checkable on nodes and edges". Following §4.6 we refine the
// outputs so that every constraint reads only the labels of one node (plus
// its incident edges/halves) or one edge (plus its endpoints):
//
//  * pointers — each pointer rule ("if u points Right then u(Right) outputs
//    Error or Right") is already an edge constraint once the pointer names
//    an input half label of the edge (paper's own example).
//
//  * Error witnesses — a node may not shout Error for free; it must carry a
//    proof the constraints can check:
//      - WSelf: the violation is visible in the node's own configuration
//        (duplicate half labels, bad domains, 3e/3f/3h shape, center
//        arity, ...); the node constraint re-evaluates it.
//      - WColorPair: two incident half-edges are marked with a color c; the
//        edge constraint forces the far endpoint's input color to be c, so
//        two such marks prove two ports reach same-colored nodes — which a
//        proper distance-2 coloring forbids, so either the graph has a
//        self-loop/parallel edge or the coloring input is invalid (Fig. 7).
//      - WEdge: one incident half is flagged; the edge constraint verifies
//        that the edge's *input* labels are inconsistent (reciprocity 2a/2b,
//        index agreement 1c, Up/Down/center rules g1/g2).
//      - WBoundary: one incident half is flagged; the edge constraint
//        compares the two endpoints' label masks (see below) to verify a
//        boundary violation (3a/3b/3c/3d/3g).
//      - WChain2c / WChain2d: the path identities u(LChild,Right,Parent)=u
//        and u(Right,LChild,Left,Parent)=u are certified through *color
//        claims*: every node outputs, for six fixed label paths, the
//        distance-4 color of the path's endpoint; edge constraints enforce
//        claim(L·σ) at v == claim(σ) at v's L-neighbor, so the claims are
//        pinned to the truth wherever the walk is unambiguous, and a claim
//        differing from the node's own color proves the walk does not
//        return (colors are unique within distance 4). This replaces the
//        paper's colored letter chains (Fig. 8) with an equivalent
//        constant-size certificate: six claims per node, each pinned by
//        one edge constraint, instead of letters threaded along the walk.
//
//  * label masks — every node publishes a tri-state count (0 / 1 / 2+) of
//    each structure label among its halves, re-checked by its node
//    constraint, so edge constraints can reason about the neighbor's other
//    edges (the §2 replication trick). Claim transitivity is enforced
//    exactly across edges whose source has mask state 1 for the step label
//    (otherwise the walk is ambiguous and the source is already WSelf-bad).
#pragma once

#include <array>

#include "gadget/psi.hpp"
#include "local/round_report.hpp"

namespace padlock {

enum PsiNeWitness : int {
  kWNone = 0,
  kWSelf = 1,
  kWColorPair = 2,
  kWEdge = 3,
  kWBoundary = 4,
  kWChain2c = 5,
  kWChain2d = 6,
  // Constraint g1 ("a Parent-less node has exactly one Center neighbor")
  // counts *neighbor node* labels, which no single edge can see. Two
  // witnesses certify its two failure modes: all halves marked as leading
  // to non-Center nodes (zero Center neighbors), or two halves marked as
  // leading to Center nodes (at least two). On a valid gadget a Parent-less
  // node is a sub-gadget root whose unique Up edge leads to the center, so
  // neither witness can be forged.
  kWCenterNone = 7,
  kWCenterPair = 8,
};

/// Half-edge output marks.
inline constexpr int kMarkNone = 0;
inline constexpr int kMarkEdge = -1;
inline constexpr int kMarkBoundary = -2;
inline constexpr int kMarkNoCenter = -3;    // far endpoint is not a Center
inline constexpr int kMarkCenterPair = -4;  // far endpoint is a Center
// positive values: the color of a WColorPair witness.

/// The six claim paths (suffix-closed so edges can check transitivity).
inline constexpr int kNumClaimPaths = 6;
enum ClaimPath : int {
  kPPar = 0,       // [Parent]
  kPRPar = 1,      // [Right, Parent]
  kPLPar = 2,      // [Left, Parent]
  kPLcRPar = 3,    // [LChild, Right, Parent]        (constraint 2c)
  kPLcLPar = 4,    // [LChild, Left, Parent]
  kPRLcLPar = 5,   // [Right, LChild, Left, Parent]  (constraint 2d)
};
inline constexpr int kNoClaim = -1;

/// First label of each claim path.
int claim_path_first_label(int path);
/// The suffix path obtained by removing the first label; -1 if length 1.
int claim_path_suffix(int path);

struct PsiNeOutput {
  NodeMap<int> kind;      // PsiLabel encoding (Ok / Error / Ptr)
  NodeMap<int> witness;   // PsiNeWitness, kWNone unless kind == Error
  NodeMap<int> mask;      // tri-state label mask (2 bits per label)
  NodeMap<std::array<int, kNumClaimPaths>> claims;
  HalfEdgeMap<int> mark;  // kMarkNone / kMarkEdge / kMarkBoundary / color

  PsiNeOutput() = default;
  explicit PsiNeOutput(const Graph& g)
      : kind(g, kPsiOk), witness(g, kWNone), mask(g, 0),
        claims(g, {kNoClaim, kNoClaim, kNoClaim, kNoClaim, kNoClaim,
                   kNoClaim}),
        mark(g, kMarkNone) {}
};

/// Tri-state mask helpers: state(label) in {0,1,2} (2 means ">= 2").
int mask_state(int mask, int label);
int make_mask(const Graph& g, const GadgetLabels& labels, NodeId v);

/// True iff the violation at v is visible in v's own configuration
/// (the WSelf witness predicate).
bool own_config_violated(const Graph& g, const GadgetLabels& labels, NodeId v);

/// True iff the edge's input labels are inconsistent (the WEdge predicate).
bool edge_inputs_inconsistent(const Graph& g, const GadgetLabels& labels,
                              EdgeId e);

struct PsiNeCheckResult {
  bool ok = true;
  std::vector<std::pair<NodeId, std::string>> violations;
};

/// The node and edge constraints of Ψ_G.
PsiNeCheckResult check_psi_ne(const Graph& g, const GadgetLabels& labels,
                              const PsiNeOutput& out,
                              std::size_t max_violations = 32);

/// Runs the verifier V and wraps its Ψ output into Ψ_G form (claims, masks,
/// witness selection). On a valid gadget everything is GadOk; on an invalid
/// one the result is a locally checkable proof of error.
struct NeVerifierResult {
  PsiNeOutput output;
  RoundReport report;
  bool found_error = false;
};
NeVerifierResult run_gadget_verifier_ne(const Graph& g,
                                        const GadgetLabels& labels);

}  // namespace padlock
