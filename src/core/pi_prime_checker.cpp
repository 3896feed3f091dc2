#include <algorithm>

#include "core/pi_prime.hpp"
#include "gadget/path_psi.hpp"

namespace padlock {

namespace {

/// Extracts the GadEdge-induced subgraph (all nodes, only gadget edges) so
/// that Ψ_G can be checked "ignoring each edge labeled PortEdge"
/// (constraint 2 of §3.3).
struct GadView {
  Graph graph;
  GadgetLabels labels;
  PsiNeOutput psi;
  std::vector<EdgeId> edge_to_padded;
};

GadView make_gad_view(const PaddedInstance& inst, const PiPrimeOutput& out) {
  GadView view;
  GraphBuilder b(inst.graph.num_nodes());
  b.add_nodes(inst.graph.num_nodes());
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    if (inst.port_edge[e]) continue;
    b.add_edge(inst.graph.endpoint(e, 0), inst.graph.endpoint(e, 1));
    view.edge_to_padded.push_back(e);
  }
  view.graph = std::move(b).build();
  view.labels = GadgetLabels(view.graph);
  view.labels.delta = inst.gadget.delta;
  view.psi = PsiNeOutput(view.graph);
  for (NodeId v = 0; v < view.graph.num_nodes(); ++v) {
    view.labels.index[v] = inst.gadget.index[v];
    view.labels.port[v] = inst.gadget.port[v];
    view.labels.center[v] = inst.gadget.center[v];
    view.labels.vcolor[v] = inst.gadget.vcolor[v];
    view.psi.kind[v] = out.psi.kind[v];
    view.psi.witness[v] = out.psi.witness[v];
    view.psi.mask[v] = out.psi.mask[v];
    view.psi.claims[v] = out.psi.claims[v];
  }
  for (EdgeId ve = 0; ve < view.graph.num_edges(); ++ve) {
    const EdgeId pe = view.edge_to_padded[ve];
    for (int side = 0; side < 2; ++side) {
      view.labels.half[HalfEdge{ve, side}] =
          inst.gadget.half[HalfEdge{pe, side}];
      view.psi.mark[HalfEdge{ve, side}] = out.psi.mark[HalfEdge{pe, side}];
    }
  }
  return view;
}

/// "An output label from LErr" at v or its surroundings: the node's Ψ_G
/// kind is anything but GadOk.
bool in_error_regime(const PiPrimeOutput& out, NodeId v) {
  return out.psi.kind[v] != kPsiOk;
}

}  // namespace

PiPrimeCheckResult check_pi_prime(const PaddedInstance& inst, const NeLcl& pi,
                                  const PiPrimeOutput& out,
                                  std::size_t max_violations) {
  const Graph& g = inst.graph;
  const int delta = inst.gadget.delta;
  PiPrimeCheckResult result;
  auto violate = [&](NodeId v, std::string why) {
    result.ok = false;
    if (result.violations.size() < max_violations)
      result.violations.emplace_back(v, std::move(why));
  };

  // Constraint 1: PortEdges carry ε for Ψ_G — no marks on their halves.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!inst.port_edge[e]) continue;
    for (int side = 0; side < 2; ++side)
      if (out.psi.mark[HalfEdge{e, side}] != kMarkNone)
        violate(g.endpoint(e, side), "1: PortEdge half not epsilon for PsiG");
  }

  // Constraint 2: Ψ_G holds on the GadEdge subgraph (the family tag picks
  // which Ψ_G the problem was defined with).
  {
    const GadView view = make_gad_view(inst, out);
    const auto psi_check =
        inst.family == GadgetFamilyKind::kPath
            ? check_path_psi_ne(view.graph, view.labels, view.psi,
                                max_violations)
            : check_psi_ne(view.graph, view.labels, view.psi, max_violations);
    if (!psi_check.ok) {
      for (const auto& [v, why] : psi_check.violations)
        violate(v, "2: PsiG: " + why);
    }
  }

  // Port-edge census per node.
  NodeMap<int> port_edge_count(g, 0);
  NodeMap<EdgeId> the_port_edge(g, kNoEdge);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!inst.port_edge[e]) continue;
    for (int side = 0; side < 2; ++side) {
      const NodeId v = g.endpoint(e, side);
      ++port_edge_count[v];
      the_port_edge[v] = e;
    }
  }

  // Constraint 3: PortErr2 iff a Port-labeled node has != 1 PortEdges.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int st = out.port_status[v];
    if (st != kNoPortErr && st != kPortErr1 && st != kPortErr2) {
      violate(v, "3: unknown port status");
      continue;
    }
    const bool is_port = inst.gadget.port[v] != 0;
    const bool deserves_err2 = is_port && port_edge_count[v] != 1;
    if (deserves_err2 != (st == kPortErr2))
      violate(v, "3: PortErr2 flag mismatch");
  }

  // Constraint 4, on PortEdges.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!inst.port_edge[e]) continue;
    const NodeId u = g.endpoint(e, 0);
    const NodeId v = g.endpoint(e, 1);
    const bool u_port = inst.gadget.port[u] != 0;
    const bool v_port = inst.gadget.port[v] != 0;
    const bool u_ok = out.psi.kind[u] == kPsiOk;
    const bool v_ok = out.psi.kind[v] == kPsiOk;
    if (u_port && v_port && u_ok && v_ok) {
      if (out.port_status[u] == kPortErr1 || out.port_status[v] == kPortErr1)
        violate(u, "4: PortErr1 between two GadOk ports");
    }
    auto must_err = [&](NodeId a, bool a_port, NodeId b, bool b_port,
                        bool a_ok, bool b_ok) {
      if (!a_port) return;
      if (!b_port || !a_ok || !b_ok) {
        if (out.port_status[a] == kNoPortErr)
          violate(a, "4: NoPortErr against NoPort/LErr far side");
      }
    };
    must_err(u, u_port, v, v_port, u_ok, v_ok);
    must_err(v, v_port, u, u_port, v_ok, u_ok);
  }

  // Constraints 5 and 6 (the Σ_list machinery).
  // Constraint 5, per node.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_error_regime(out, v)) continue;  // "always satisfied"
    const SigmaList& l = out.list[v];
    if (static_cast<int>(l.iota_e.size()) != delta ||
        static_cast<int>(l.iota_b.size()) != delta ||
        static_cast<int>(l.o_e.size()) != delta ||
        static_cast<int>(l.o_b.size()) != delta) {
      violate(v, "5: malformed Sigma_list arity");
      continue;
    }
    const int port_i = inst.gadget.port[v];
    if (port_i != 0) {
      // Port_i ∈ S iff NoPortErr.
      if (l.has_port(port_i) != (out.port_status[v] == kNoPortErr))
        violate(v, "5: S membership vs port status");
      if (port_i == 1 && l.iota_v != inst.pi_input.node[v])
        violate(v, "5: iota_V != Port_1 input");
      if (l.has_port(port_i) && port_edge_count[v] == 1) {
        const EdgeId pe = the_port_edge[v];
        const int side = (g.endpoint(pe, 0) == v) ? 0 : 1;
        if (l.iota_e[static_cast<std::size_t>(port_i - 1)] !=
            inst.pi_input.edge[pe])
          violate(v, "5: iota_E copy mismatch");
        if (l.iota_b[static_cast<std::size_t>(port_i - 1)] !=
            inst.pi_input.half[HalfEdge{pe, side}])
          violate(v, "5: iota_B copy mismatch");
      }
    }
    // The hypothetical virtual node satisfies C_N of Π.
    {
      std::vector<Label> edge_in, edge_out, half_in, half_out;
      for (int i = 1; i <= delta; ++i) {
        if (!l.has_port(i)) continue;
        edge_in.push_back(l.iota_e[static_cast<std::size_t>(i - 1)]);
        edge_out.push_back(l.o_e[static_cast<std::size_t>(i - 1)]);
        half_in.push_back(l.iota_b[static_cast<std::size_t>(i - 1)]);
        half_out.push_back(l.o_b[static_cast<std::size_t>(i - 1)]);
      }
      NodeEnv env{
          .degree = static_cast<int>(edge_in.size()),
          .node_in = l.iota_v,
          .node_out = l.o_v,
          .edge_in = edge_in,
          .edge_out = edge_out,
          .half_in = half_in,
          .half_out = half_out,
      };
      if (!pi.node_ok(env)) violate(v, "5: inner node constraint fails");
    }
  }

  // Constraint 6, per edge.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId u = g.endpoint(e, 0);
    const NodeId v = g.endpoint(e, 1);
    if (in_error_regime(out, u) || in_error_regime(out, v)) continue;
    if (!inst.port_edge[e]) {
      // GadEdge: identical Σ_list on both sides.
      if (!(out.list[u] == out.list[v]))
        violate(u, "6: Sigma_list differs along GadEdge");
      continue;
    }
    const int i = inst.gadget.port[u];
    const int j = inst.gadget.port[v];
    if (i == 0 || j == 0) continue;  // constraint 4 already forces errors
    const SigmaList& lu = out.list[u];
    const SigmaList& lv = out.list[v];
    if (!lu.has_port(i) || !lv.has_port(j)) continue;  // invalid ports free
    const auto iu = static_cast<std::size_t>(i - 1);
    const auto jv = static_cast<std::size_t>(j - 1);
    if (lu.iota_e[iu] != lv.iota_e[jv] || lu.o_e[iu] != lv.o_e[jv]) {
      violate(u, "6: edge copies differ across PortEdge");
      continue;
    }
    EdgeEnv env;
    env.self_loop = false;
    env.edge_in = lu.iota_e[iu];
    env.edge_out = lu.o_e[iu];
    env.node_in[0] = lu.iota_v;
    env.node_in[1] = lv.iota_v;
    env.node_out[0] = lu.o_v;
    env.node_out[1] = lv.o_v;
    env.half_in[0] = lu.iota_b[iu];
    env.half_in[1] = lv.iota_b[jv];
    env.half_out[0] = lu.o_b[iu];
    env.half_out[1] = lv.o_b[jv];
    if (!pi.edge_ok(env)) violate(u, "6: inner edge constraint fails");
  }
  return result;
}

}  // namespace padlock
