#include <algorithm>

#include "core/pi_prime.hpp"
#include "gadget/path_psi.hpp"
#include "graph/metrics.hpp"

namespace padlock {

PiPrimeSolveResult solve_pi_prime(
    const PaddedInstance& inst,
    const std::function<AlgoResult(const RunContext&)>& solve_pi,
    const IdMap& ids, std::size_t n_known, std::uint64_t seed) {
  const Graph& g = inst.graph;
  const int delta = inst.gadget.delta;
  PADLOCK_REQUIRE(ids_valid(g, ids));

  PiPrimeSolveResult res;
  res.output = PiPrimeOutput(g, delta);

  // ---- Step 1: the gadget verifier V on the GadEdge subgraph. ----
  const GadgetSubgraph gs = gadget_subgraph(inst);
  const NeVerifierResult ver =
      inst.family == GadgetFamilyKind::kPath
          ? run_path_verifier_ne(gs.graph, gs.labels)
          : run_gadget_verifier_ne(gs.graph, gs.labels);

  // Copy Ψ_G outputs back to the padded instance.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    res.output.psi.kind[v] = ver.output.kind[v];
    res.output.psi.witness[v] = ver.output.witness[v];
    res.output.psi.mask[v] = ver.output.mask[v];
    res.output.psi.claims[v] = ver.output.claims[v];
  }
  for (EdgeId ve = 0; ve < gs.graph.num_edges(); ++ve)
    for (int side = 0; side < 2; ++side)
      res.output.psi.mark[HalfEdge{gs.edge_to_padded[ve], side}] =
          ver.output.mark[HalfEdge{ve, side}];

  // ---- Step 2: components, validity, port statuses. ----
  const auto comps = connected_components(gs.graph);
  std::vector<bool> comp_valid(static_cast<std::size_t>(comps.count), true);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (ver.output.kind[v] != kPsiOk)
      comp_valid[static_cast<std::size_t>(comps.id[v])] = false;

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
  auto valid_port = [&](NodeId v) {
    if (inst.gadget.port[v] == 0 || port_edge_count[v] != 1) return false;
    if (!comp_valid[static_cast<std::size_t>(comps.id[v])]) return false;
    const EdgeId pe = the_port_edge[v];
    const NodeId w = g.endpoint(pe, 0) == v ? g.endpoint(pe, 1)
                                            : g.endpoint(pe, 0);
    return inst.gadget.port[w] != 0 && port_edge_count[w] == 1 &&
           comp_valid[static_cast<std::size_t>(comps.id[w])];
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (inst.gadget.port[v] == 0) {
      res.output.port_status[v] = kNoPortErr;
    } else if (port_edge_count[v] != 1) {
      res.output.port_status[v] = kPortErr2;
    } else {
      res.output.port_status[v] = valid_port(v) ? kNoPortErr : kPortErr1;
    }
  }

  // ---- Step 3: contract valid gadgets into the virtual multigraph. ----
  // Valid components become virtual nodes in component order; invalid ones
  // map to kNoNode.
  std::vector<NodeId> comp_virtual(static_cast<std::size_t>(comps.count),
                                   kNoNode);
  std::size_t num_virtual = 0;
  for (std::size_t c = 0; c < comp_virtual.size(); ++c)
    if (comp_valid[c]) comp_virtual[c] = static_cast<NodeId>(num_virtual++);
  auto virtual_of = [&](NodeId v) {
    return comp_virtual[static_cast<std::size_t>(comps.id[v])];
  };
  // Valid ports of each component in ascending Port index — this realizes
  // the monotone port mapping α.
  std::vector<std::vector<NodeId>> comp_ports(num_virtual);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (valid_port(v)) comp_ports[virtual_of(v)].push_back(v);
  for (auto& ports : comp_ports)
    std::sort(ports.begin(), ports.end(), [&](NodeId a, NodeId b) {
      return inst.gadget.port[a] < inst.gadget.port[b];
    });
  // Rank of each valid port inside its component's α order.
  NodeMap<int> port_rank(g, -1);
  for (std::size_t c = 0; c < comp_ports.size(); ++c)
    for (std::size_t k = 0; k < comp_ports[c].size(); ++k)
      port_rank[comp_ports[c][k]] = static_cast<int>(k);

  GraphBuilder vb(num_virtual);
  vb.add_nodes(num_virtual);
  NeLabeling vinput;
  {
    // Each PortEdge between valid ports becomes one virtual edge. The
    // builder's port numbering of the virtual graph is insertion order —
    // any consistent numbering works for solving — while the α mapping
    // ("virtual port k of C = its k-th valid Port index") is tracked
    // explicitly in vport for the output write-back.
    std::vector<std::pair<EdgeId, int>> vedge_from;  // padded edge, side
    std::vector<std::vector<std::pair<EdgeId, int>>> vport(
        comp_ports.size());  // per component: (virtual edge, side) by rank
    for (std::size_t c = 0; c < comp_ports.size(); ++c)
      vport[c].resize(comp_ports[c].size(), {kNoEdge, 0});
    for (std::size_t c = 0; c < comp_ports.size(); ++c) {
      for (std::size_t k = 0; k < comp_ports[c].size(); ++k) {
        const NodeId p = comp_ports[c][k];
        const EdgeId pe = the_port_edge[p];
        const int side = g.endpoint(pe, 0) == p ? 0 : 1;
        const NodeId q = g.endpoint(pe, 1 - side);
        const auto cq = static_cast<std::size_t>(virtual_of(q));
        const auto kq = static_cast<std::size_t>(port_rank[q]);
        const bool q_first = cq < c || (cq == c && kq < k);
        if (q_first) continue;  // added from the other endpoint
        const EdgeId ve = vb.add_edge(static_cast<NodeId>(c),
                                      static_cast<NodeId>(cq));
        vedge_from.push_back({pe, side});
        vport[c][k] = {ve, 0};
        vport[cq][kq] = {ve, 1};
      }
    }
    Graph vgraph = std::move(vb).build();
    res.virtual_nodes = vgraph.num_nodes();
    res.virtual_edges = vgraph.num_edges();

    // Virtual ids: the smallest padded id inside the gadget.
    IdMap vids(vgraph, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const NodeId vc = virtual_of(v);
      if (vc == kNoNode) continue;
      auto& slot = vids[vc];
      if (slot == 0 || ids[v] < slot) slot = ids[v];
    }
    // Virtual inputs: ι^V from Port_1 (falling back to any gadget node,
    // which carries the same copied input by construction), edge/half
    // inputs from the PortEdges.
    vinput = NeLabeling(vgraph);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const NodeId vc = virtual_of(v);
      if (vc == kNoNode) continue;
      if (inst.gadget.port[v] == 1 || vinput.node[vc] == kEmptyLabel)
        vinput.node[vc] = inst.pi_input.node[v];
    }
    for (EdgeId ve = 0; ve < vgraph.num_edges(); ++ve) {
      const auto [pe, side] = vedge_from[static_cast<std::size_t>(ve)];
      vinput.edge[ve] = inst.pi_input.edge[pe];
      vinput.half[HalfEdge{ve, 0}] = inst.pi_input.half[HalfEdge{pe, side}];
      vinput.half[HalfEdge{ve, 1}] =
          inst.pi_input.half[HalfEdge{pe, 1 - side}];
    }

    // ---- Step 4: solve Π on the virtual graph. ----
    const AlgoResult inner = solve_pi(RunContext{.graph = vgraph,
                                                 .ids = vids,
                                                 .id_space = n_known,
                                                 .seed = seed,
                                                 .input = vinput,
                                                 .n_known = n_known});
    res.inner_rounds = inner.rounds.rounds;

    // ---- Step 5: write Σ_list back into every valid gadget node. ----
    std::vector<SigmaList> lists(num_virtual, SigmaList(delta));
    for (std::size_t c = 0; c < num_virtual; ++c) {
      SigmaList& list = lists[c];
      const auto vc = static_cast<NodeId>(c);
      list.iota_v = vinput.node[vc];
      list.o_v = inner.output.node[vc];
      for (const NodeId p : comp_ports[c]) {
        const int i = inst.gadget.port[p];
        list.ports |= 1u << (i - 1);
        const EdgeId pe = the_port_edge[p];
        const int side = g.endpoint(pe, 0) == p ? 0 : 1;
        list.iota_e[static_cast<std::size_t>(i - 1)] = inst.pi_input.edge[pe];
        list.iota_b[static_cast<std::size_t>(i - 1)] =
            inst.pi_input.half[HalfEdge{pe, side}];
      }
      // Map virtual outputs back through α.
      for (std::size_t k = 0; k < comp_ports[c].size(); ++k) {
        const NodeId p = comp_ports[c][k];
        const int i = inst.gadget.port[p];
        const auto [ve, vside] = vport[c][k];
        PADLOCK_ASSERT(ve != kNoEdge);
        list.o_e[static_cast<std::size_t>(i - 1)] = inner.output.edge[ve];
        list.o_b[static_cast<std::size_t>(i - 1)] =
            inner.output.half[HalfEdge{ve, vside}];
      }
    }
    // One pass writes the lists and finds the largest valid-gadget
    // diameter: the verifier report already carries per-node eccentricity
    // estimates, and a component's diameter is their maximum.
    int max_gadget_diam = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const NodeId vc = virtual_of(v);
      if (vc == kNoNode) continue;
      res.output.list[v] = lists[vc];
      max_gadget_diam = std::max(max_gadget_diam, ver.report.node_rounds[v]);
    }

    // ---- Round accounting (Lemma 4). ----
    res.stretch = max_gadget_diam + 1;
    res.verifier_rounds = ver.report.rounds;
    NodeMap<int> per_node(g, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      int r = ver.report.node_rounds[v] + 2;  // V + port handshake
      if (comp_valid[static_cast<std::size_t>(comps.id[v])])
        r += res.inner_rounds * res.stretch + res.stretch;
      per_node[v] = r;
    }
    res.report = RoundReport::from(std::move(per_node));
  }
  return res;
}

}  // namespace padlock
