#include "gadget/path_psi.hpp"

#include <string>
#include <vector>

#include "graph/metrics.hpp"
#include "support/check.hpp"

namespace padlock {

namespace {

bool is_path_pointer(int l) {
  if (!is_psi_pointer(l)) return false;
  const int h = psi_pointer_label(l);
  return h == kHalfRight || h == kHalfLeft || h == kHalfUp || is_down_label(h);
}

/// The allowed outputs at u(ptr) when u outputs pointer `ptr` (rule 2).
bool step_allowed(const GadgetLabels& labels, NodeId u, int ptr, int far_out) {
  if (far_out == kPsiError) return true;
  if (!is_psi_pointer(far_out)) return false;
  const int fh = psi_pointer_label(far_out);
  const int h = psi_pointer_label(ptr);
  if (h == kHalfRight) return fh == kHalfRight;
  if (h == kHalfLeft) return fh == kHalfLeft || fh == kHalfUp;
  if (h == kHalfUp) {
    return is_down_label(fh) && down_index(fh) != labels.index[u];
  }
  if (is_down_label(h)) return fh == kHalfRight;
  return false;
}

struct PsiPlan {
  PsiOutput out;
  NodeMap<bool> is_error;
  bool found_error = false;
};

/// The verifier's decision procedure (shared by the plain and ne forms).
PsiPlan plan_psi(const Graph& g, const GadgetLabels& labels) {
  const std::size_t n = g.num_nodes();
  PsiPlan plan;
  plan.out = PsiOutput(n, kPsiOk);
  plan.is_error = NodeMap<bool>(n, false);

  for (NodeId v = 0; v < n; ++v) {
    if (!path_node_ok(g, labels, v)) {
      plan.is_error[v] = true;
      plan.found_error = true;
    }
  }
  if (!plan.found_error) return plan;  // all Ok

  const Components comps = connected_components(g);
  std::vector<bool> comp_has_error(static_cast<std::size_t>(comps.count),
                                   false);
  for (NodeId v = 0; v < n; ++v) {
    if (plan.is_error[v]) {
      comp_has_error[static_cast<std::size_t>(comps.id[v])] = true;
    }
  }

  const NodeMap<bool> right_err =
      label_chain_reaches(g, labels, plan.is_error, kHalfRight);
  const NodeMap<bool> left_err =
      label_chain_reaches(g, labels, plan.is_error, kHalfLeft);

  for (NodeId v = 0; v < n; ++v) {
    if (!comp_has_error[static_cast<std::size_t>(comps.id[v])]) {
      plan.out[v] = kPsiOk;
      continue;
    }
    if (plan.is_error[v]) {
      plan.out[v] = kPsiError;
      continue;
    }
    if (right_err[v]) {
      plan.out[v] = psi_pointer(kHalfRight);
      continue;
    }
    if (left_err[v]) {
      plan.out[v] = psi_pointer(kHalfLeft);
      continue;
    }
    if (!labels.center[v]) {
      // A valid sub-path node with the error elsewhere: walk toward the
      // center (Left if present, else this is the left end and Up leads
      // out). P4 guarantees one of the two exists at a non-Error node.
      if (follow_label(g, labels, v, kHalfLeft) != kNoNode) {
        plan.out[v] = psi_pointer(kHalfLeft);
      } else {
        plan.out[v] = psi_pointer(kHalfUp);
      }
      continue;
    }
    // Center: smallest Down_i whose sub-path holds an error (directly at
    // the attachment or along its Right chain). The structure arguments in
    // path_gadget.hpp guarantee one exists when the component has an error
    // and the center itself is locally valid.
    int chosen = 0;
    for (int i = 1; i <= labels.delta && chosen == 0; ++i) {
      const NodeId p = follow_label(g, labels, v, down_label(i));
      if (p == kNoNode) continue;
      if (plan.is_error[p] || right_err[p]) chosen = i;
    }
    PADLOCK_REQUIRE(chosen != 0);
    plan.out[v] = psi_pointer(down_label(chosen));
  }
  return plan;
}

}  // namespace

PsiCheckResult check_path_psi(const Graph& g, const GadgetLabels& labels,
                              const PsiOutput& out,
                              std::size_t max_violations) {
  PsiCheckResult res;
  auto violate = [&](NodeId v, const std::string& why) {
    res.ok = false;
    if (res.violations.size() < max_violations) {
      res.violations.emplace_back(v, why);
    }
  };

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int o = out[v];
    const bool violated = !path_node_ok(g, labels, v);
    if (o == kPsiError) {
      if (!violated) violate(v, "Error without a structural violation");
      continue;
    }
    if (violated && o != kPsiError) {
      violate(v, "structural violation without Error output");
      continue;
    }
    if (o == kPsiOk) {
      // Rule 3: no pointer or Error may face an Ok node.
      for (int p = 0; p < g.degree(v); ++p) {
        if (out[g.neighbor(v, p)] != kPsiOk) {
          violate(v, "Ok adjacent to an error label");
          break;
        }
      }
      continue;
    }
    if (!is_path_pointer(o)) {
      violate(v, "output outside {Ok, Error, path pointers}");
      continue;
    }
    const int h = psi_pointer_label(o);
    const NodeId w = follow_label(g, labels, v, h);
    if (w == kNoNode) {
      violate(v, "pointer along a missing or ambiguous half label");
      continue;
    }
    if (!step_allowed(labels, v, o, out[w])) {
      violate(v, "pointer chain step violates rule 2");
    }
  }
  return res;
}

VerifierResult run_path_verifier(const Graph& g, const GadgetLabels& labels) {
  const PsiPlan plan = plan_psi(g, labels);
  VerifierResult res;
  res.output = plan.out;
  res.found_error = plan.found_error;
  res.report = gadget_round_report(g);
  return res;
}

// ---- ne refinement -----------------------------------------------------------

namespace {

/// Extends the WEdge predicate with the facts only the edge can certify:
/// equal endpoint verification colors and self-loops.
bool path_edge_bad(const Graph& g, const GadgetLabels& labels, EdgeId e) {
  if (g.is_self_loop(e)) return true;
  const NodeId u = g.endpoint(e, 0);
  const NodeId v = g.endpoint(e, 1);
  if (labels.vcolor[u] == labels.vcolor[v]) return true;
  return path_edge_inputs_inconsistent(g, labels, e);
}

/// Chooses a witness for an Error node; returns kWNone if (against
/// expectation) none fits, which the caller treats as a hard failure.
int choose_witness(const Graph& g, const GadgetLabels& labels, NodeId v,
                   PsiNeOutput& out) {
  if (path_own_config_violated(g, labels, v)) return kWSelf;
  for (int p = 0; p < g.degree(v); ++p) {
    const HalfEdge h = g.incidence(v, p);
    if (path_edge_bad(g, labels, h.edge)) {
      out.mark[h] = kMarkEdge;
      return kWEdge;
    }
  }
  // Two incident halves reaching same-colored far endpoints (parallel
  // edges or a corrupted distance-2 coloring).
  for (int p = 0; p < g.degree(v); ++p) {
    for (int q = p + 1; q < g.degree(v); ++q) {
      const HalfEdge hp = g.incidence(v, p);
      const HalfEdge hq = g.incidence(v, q);
      const NodeId a = g.node_across(hp);
      const NodeId b = g.node_across(hq);
      if (labels.vcolor[a] == labels.vcolor[b]) {
        out.mark[hp] = labels.vcolor[a];
        out.mark[hq] = labels.vcolor[a];
        return kWColorPair;
      }
    }
  }
  return kWNone;
}

}  // namespace

PsiNeCheckResult check_path_psi_ne(const Graph& g, const GadgetLabels& labels,
                                   const PsiNeOutput& out,
                                   std::size_t max_violations) {
  PsiNeCheckResult res;
  auto violate = [&](NodeId v, const std::string& why) {
    res.ok = false;
    if (res.violations.size() < max_violations) {
      res.violations.emplace_back(v, why);
    }
  };

  // ---- node constraints ----
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int kind = out.kind[v];
    const int wit = out.witness[v];
    int edge_marks = 0;
    int color_marks = 0;
    int color_value = -1;
    bool color_consistent = true;
    for (int p = 0; p < g.degree(v); ++p) {
      const int m = out.mark[g.incidence(v, p)];
      if (m == kMarkEdge) ++edge_marks;
      if (m > 0) {
        ++color_marks;
        if (color_value == -1) {
          color_value = m;
        } else if (color_value != m) {
          color_consistent = false;
        }
      }
      if (m == kMarkBoundary || m == kMarkNoCenter || m == kMarkCenterPair) {
        violate(v, "tree-family marks are not part of the path family");
      }
    }
    if (kind == kPsiError) {
      switch (wit) {
        case kWSelf:
          if (!path_own_config_violated(g, labels, v)) {
            violate(v, "WSelf without an own-config violation");
          }
          if (edge_marks + color_marks != 0) {
            violate(v, "WSelf must carry no half marks");
          }
          break;
        case kWEdge:
          if (edge_marks != 1 || color_marks != 0) {
            violate(v, "WEdge needs exactly one edge mark");
          }
          break;
        case kWColorPair:
          if (color_marks != 2 || !color_consistent || edge_marks != 0) {
            violate(v, "WColorPair needs two marks of one color");
          }
          break;
        default:
          violate(v, "Error without a path-family witness");
      }
      continue;
    }
    if (wit != kWNone || edge_marks + color_marks != 0) {
      violate(v, "witness or marks on a non-Error node");
    }
    // A node whose own configuration is provably bad cannot claim Ok or
    // route a pointer — it must output Error (the "iff" of rule 1, in its
    // node-checkable part).
    if (path_own_config_violated(g, labels, v)) {
      violate(v, "own-config violation without Error output");
    }
    if (kind == kPsiOk) continue;
    if (!is_path_pointer(kind)) {
      violate(v, "output outside {Ok, Error, path pointers}");
      continue;
    }
    // Pointer existence/uniqueness is a node fact (own half labels).
    int hits = 0;
    for (int p = 0; p < g.degree(v); ++p) {
      if (labels.half[g.incidence(v, p)] == psi_pointer_label(kind)) ++hits;
    }
    if (hits != 1) violate(v, "pointer without a unique matching half");
  }

  // ---- edge constraints ----
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId u = g.endpoint(e, 0);
    const NodeId v = g.endpoint(e, 1);
    for (int side = 0; side < 2; ++side) {
      const NodeId a = g.endpoint(e, side);
      const NodeId bnode = g.endpoint(e, 1 - side);
      const HalfEdge h{e, side};
      const int m = out.mark[h];
      if (m == kMarkEdge && !path_edge_bad(g, labels, e)) {
        violate(a, "edge mark on a consistent edge");
      }
      if (m > 0 && labels.vcolor[bnode] != m) {
        violate(a, "color mark does not match the far input color");
      }
      // Pointer chain step along this edge.
      const int kind = out.kind[a];
      if (is_psi_pointer(kind) &&
          labels.half[h] == psi_pointer_label(kind)) {
        if (!step_allowed(labels, a, kind, out.kind[bnode])) {
          violate(a, "pointer chain step violates rule 2");
        }
      }
    }
    // A provably inconsistent edge forbids Ok at both ends (the edge-level
    // part of rule 1's "iff").
    if (path_edge_bad(g, labels, e) &&
        (out.kind[u] == kPsiOk || out.kind[v] == kPsiOk)) {
      violate(u, "Ok endpoint on an inconsistent edge");
    }
    // Rule 3: Ok and non-Ok never face each other.
    if ((out.kind[u] == kPsiOk) != (out.kind[v] == kPsiOk)) {
      violate(u, "Ok adjacent to an error label");
    }
  }
  return res;
}

NeVerifierResult run_path_verifier_ne(const Graph& g,
                                      const GadgetLabels& labels) {
  const PsiPlan plan = plan_psi(g, labels);
  NeVerifierResult res;
  res.output = PsiNeOutput(g);
  res.found_error = plan.found_error;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    res.output.kind[v] = plan.out[v];
    if (plan.out[v] == kPsiError) {
      const int wit = choose_witness(g, labels, v, res.output);
      PADLOCK_REQUIRE(wit != kWNone);
      res.output.witness[v] = wit;
    }
  }
  res.report = gadget_round_report(g);
  return res;
}

}  // namespace padlock
