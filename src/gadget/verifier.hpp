// Algorithm V of §4.5: solves Ψ on gadget-labeled graphs in O(log n)
// rounds. On a valid gadget every node outputs Ok; on an invalid one,
// structurally violated nodes output Error and all other nodes output error
// pointers chosen by the paper's case analysis (steps 5–6), producing a
// locally checkable proof of error.
//
// Round accounting: a node certifies validity (or picks its pointer) after
// seeing its whole gadget component, whose diameter is O(log n) for
// (log, Δ)-gadgets; the report carries per-node eccentricity estimates from
// a BFS double sweep (exact on trees, a >= diameter/2 lower bound in
// general). The sweep runs over all components at once, in O(n + m).
//
// Both gadget families (this file's tree family and path_psi.hpp's path
// family) decide their pointers with label_chain_reaches and account
// rounds with gadget_round_report.
#pragma once

#include "gadget/psi.hpp"
#include "local/engine.hpp"

namespace padlock {

struct VerifierResult {
  PsiOutput output;
  RoundReport report;
  bool found_error = false;  // any component with a structural violation
};

VerifierResult run_gadget_verifier(const Graph& g, const GadgetLabels& labels);

/// Per node v: does following `label` halves from v, one or more times,
/// reach a node with `target` set? A walk that meets a missing or
/// ambiguous half, or closes a cycle without reaching a target, does not.
/// O(n) follow_label steps in total: each walk stops at the first node
/// already decided.
NodeMap<bool> label_chain_reaches(const Graph& g, const GadgetLabels& labels,
                                  const NodeMap<bool>& target, int label);

/// Per-node rounds of a verifier that gathers its whole component: the
/// larger of the distances to the two ends of a BFS double sweep. Every
/// component sweeps from its first node and moves to its first farthest
/// node (in node order); one multi-source BFS per sweep covers all
/// components, so the report costs O(n + m).
RoundReport gadget_round_report(const Graph& g);

}  // namespace padlock
