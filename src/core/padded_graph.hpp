// Padded graphs (Definition 3): replace every node v of a base graph G by
// a gadget C_v from the (log, Δ)-family, connect Port_a(C_u) -- Port_b(C_v)
// for every base edge {u,v} joining port a of u to port b of v, and label
// gadget-internal edges GadEdge and connection edges PortEdge.
//
// The builder also carries the inner problem's input Σ^Π_in onto the padded
// graph: each gadget node receives its base node's Π-input (constraint 5
// of §3.3 reads it back from Port_1 — "an arbitrary choice" made uniform
// here), each PortEdge receives the base edge's input, and each PortEdge
// half receives the base half's input.
#pragma once

#include "gadget/gadget.hpp"
#include "lcl/ne_lcl.hpp"

namespace padlock {

/// Which (d, Δ)-gadget family the instance's Π' was defined against. The
/// family is part of the *problem* (it fixes Ψ_G), so every instance of
/// that problem carries the tag; constraint checking and the Lemma 4
/// solver dispatch on it.
enum class GadgetFamilyKind {
  kTree,  // the paper's (log, Δ)-family (§4)
  kPath,  // the (linear, Δ)-family (path_gadget.hpp) — d(n) = Θ(n)
};

/// A Π'-instance: the padded graph with all its input labels.
struct PaddedInstance {
  Graph graph;
  GadgetLabels gadget;       // Σ^G_in: indices, ports, centers, halves, colors
  EdgeMap<bool> port_edge;   // PortEdge (true) vs GadEdge (false)
  NeLabeling pi_input;       // Σ^Π_in carried for the inner problem
  GadgetFamilyKind family = GadgetFamilyKind::kTree;
};

/// Construction metadata (not visible to distributed algorithms; used by
/// tests and benches to relate the padded instance back to its base).
struct PaddedMeta {
  Graph base;
  NeLabeling base_input;
  /// center[v] = the center node of C_v.
  std::vector<NodeId> center;
  /// port_node[v][p] = the Port_{p+1} node of C_v (base port p).
  std::vector<std::vector<NodeId>> port_node;
  int delta = 0;
  int height = 0;
};

struct PaddedBuild {
  PaddedInstance instance;
  PaddedMeta meta;
};

/// Pads `base` with uniform gadgets of `height` levels and `delta` >= the
/// base's maximum degree sub-gadgets.
PaddedBuild build_padded_instance(const Graph& base,
                                  const NeLabeling& base_input, int delta,
                                  int height);

/// Pads `base` with uniform *path* gadgets of sub-path length `length`
/// (>= 2). The result carries GadgetFamilyKind::kPath; for this family the
/// gadget stretch is Θ(gadget size) instead of Θ(log gadget size).
PaddedBuild build_padded_instance_path(const Graph& base,
                                       const NeLabeling& base_input, int delta,
                                       int length);

/// Gadget height such that each gadget has roughly `gadget_nodes` nodes.
int height_for_gadget_nodes(int delta, std::size_t gadget_nodes);

/// Node count of build_padded_instance(base, …, delta, height) for a base
/// of `base_nodes` nodes: base_nodes · gadget_size(delta, height),
/// saturating at SIZE_MAX. Computed before anything is allocated.
std::size_t padded_size(std::size_t base_nodes, int delta, int height);

/// The GadEdge-induced subgraph of a padded instance: all padded nodes,
/// gadget edges only, with the gadget labels carried over. This is the
/// graph the verifier V runs on (Lemma 4 step 1: "ignore edges labeled
/// PortEdge").
struct GadgetSubgraph {
  Graph graph;
  GadgetLabels labels;
  /// edge ids of `graph` -> edge ids of the padded graph.
  std::vector<EdgeId> edge_to_padded;
};
GadgetSubgraph gadget_subgraph(const PaddedInstance& inst);

}  // namespace padlock
