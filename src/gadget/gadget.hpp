// The (log, Δ)-gadget family of §4.
//
// A *sub-gadget* of height h is a complete binary tree (levels 0..h-1)
// augmented with horizontal edges along each level; the bottom-right node
// is the sub-gadget's port. A *gadget* consists of Δ sub-gadgets whose
// roots all attach to a central node. Constant-size input labels (Figure 5
// and Figure 6) make the structure locally checkable:
//
//   node labels:  Index_i (which sub-gadget), Port_i (bottom-right nodes),
//                 Center (the hub);
//   half labels:  L_u(e) ∈ {Parent, Right, Left, LChild, RChild, Up,
//                 Down_i}.
//
// Following §4.6, gadgets also carry a distance-2 coloring as input (used
// by the node-edge-checkable refinement to witness self-loop / parallel
// edge errors); the color is replicated onto the node's half-edges.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/labels.hpp"

namespace padlock {

/// Half-edge structure labels L_u(e). kDownBase + i encodes Down_i.
enum GadgetHalfLabel : int {
  kHalfNone = 0,
  kHalfParent = 1,
  kHalfRight = 2,
  kHalfLeft = 3,
  kHalfLChild = 4,
  kHalfRChild = 5,
  kHalfUp = 6,
  kHalfDownBase = 8,  // Down_i = kHalfDownBase + i, 1 <= i <= Δ
};

[[nodiscard]] constexpr bool is_down_label(int l) { return l > kHalfDownBase; }
[[nodiscard]] constexpr int down_label(int i) { return kHalfDownBase + i; }
[[nodiscard]] constexpr int down_index(int l) { return l - kHalfDownBase; }

std::string half_label_name(int label);

/// A gadget-labeled graph: the topology plus all input labels. The graph
/// need not actually be a valid gadget — the checker modules decide that.
struct GadgetLabels {
  /// Index_i per node (1..Δ); 0 on the center (or on malformed nodes).
  NodeMap<int> index;
  /// Port_i per node (i >= 1), 0 = NoPort.
  NodeMap<int> port;
  /// True on the center node.
  NodeMap<bool> center;
  /// L_u(e) per half-edge (GadgetHalfLabel values).
  HalfEdgeMap<int> half;
  /// Verification coloring (input, §4.6): a proper distance-4 coloring,
  /// replicated on half-edges by convention (stored once per node). §4.6
  /// uses a distance-2 coloring to witness self-loops/parallel edges; we
  /// strengthen it to distance 4 so that the node-edge refinement can also
  /// certify the 4-hop path identities of constraints 2c/2d by transitive
  /// color claims instead of colored letter chains (see ne_refinement.hpp).
  NodeMap<int> vcolor;
  /// The Δ the labels were written against.
  int delta = 0;

  GadgetLabels() = default;
  explicit GadgetLabels(const Graph& g)
      : index(g, 0), port(g, 0), center(g, false), half(g, kHalfNone),
        vcolor(g, 0) {}
};

struct GadgetInstance {
  Graph graph;
  GadgetLabels labels;
  NodeId center = kNoNode;
  /// ports[i-1] = the Port_i node.
  std::vector<NodeId> ports;
  int height = 0;
};

/// Number of nodes of a gadget with `delta` sub-gadgets of height h:
/// delta * (2^h - 1) + 1, saturating at SIZE_MAX (no such gadget fits in
/// memory).
std::size_t gadget_size(int delta, int height);

/// Smallest height >= 2 whose gadget size is >= target_nodes; at most 64
/// for any target.
int gadget_height_for_size(int delta, std::size_t target_nodes);

/// Builds a valid gadget: Δ sub-gadgets of height `height` (>= 2) plus the
/// center, fully labeled (including the distance-2 coloring).
GadgetInstance build_gadget(int delta, int height);

/// Follows the unique incident edge of v whose half label (at v) is
/// `label`; returns kNoNode if there is no such edge or it is ambiguous.
NodeId follow_label(const Graph& g, const GadgetLabels& labels, NodeId v,
                    int label);

}  // namespace padlock
