#include "core/padded_graph.hpp"

#include <limits>

#include "gadget/path_gadget.hpp"
#include "support/check.hpp"

namespace padlock {

int height_for_gadget_nodes(int delta, std::size_t gadget_nodes) {
  return gadget_height_for_size(delta, gadget_nodes);
}

std::size_t padded_size(std::size_t base_nodes, int delta, int height) {
  std::size_t nodes = 0;
  if (__builtin_mul_overflow(base_nodes, gadget_size(delta, height), &nodes))
    return std::numeric_limits<std::size_t>::max();
  return nodes;
}

namespace {

/// Stamps one copy of `tmpl` per base node and wires the ports — shared by
/// the tree- and path-family builders (Definition 3 is family-agnostic).
PaddedBuild build_padded_from_template(const Graph& base,
                                       const NeLabeling& base_input, int delta,
                                       int height, const GadgetInstance& tmpl,
                                       GadgetFamilyKind family) {
  PADLOCK_REQUIRE(delta >= base.max_degree());
  PADLOCK_REQUIRE(base_input.node.size() == base.num_nodes());

  const std::size_t gsize = tmpl.graph.num_nodes();

  PaddedBuild out;
  out.meta.base = base;
  out.meta.base_input = base_input;
  out.meta.delta = delta;
  out.meta.height = height;
  out.meta.center.resize(base.num_nodes());
  out.meta.port_node.assign(base.num_nodes(), {});

  GraphBuilder b(base.num_nodes() * gsize);
  b.add_nodes(base.num_nodes() * gsize);
  auto mapped = [&](NodeId base_node, NodeId tmpl_node) {
    return static_cast<NodeId>(static_cast<std::size_t>(base_node) * gsize +
                               tmpl_node);
  };

  // Gadget-internal edges, per base node, in template edge order (this
  // keeps each copy's port order identical to the template's).
  struct HalfLabelCopy {
    EdgeId e;
    int side;
    int label;
  };
  std::vector<HalfLabelCopy> half_copies;
  std::vector<EdgeId> port_edges;  // ids assigned after all gadget edges
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    for (EdgeId e = 0; e < tmpl.graph.num_edges(); ++e) {
      const EdgeId ne = b.add_edge(mapped(v, tmpl.graph.endpoint(e, 0)),
                                   mapped(v, tmpl.graph.endpoint(e, 1)));
      for (int side = 0; side < 2; ++side)
        half_copies.push_back(
            {ne, side, tmpl.labels.half[HalfEdge{e, side}]});
    }
  }
  // Port edges: base edge {u,v} attaching at port a of u and port b of v
  // joins Port_{a+1}(C_u) with Port_{b+1}(C_v).
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    const NodeId u = base.endpoint(e, 0);
    const NodeId v = base.endpoint(e, 1);
    const int pu = base.port_of(HalfEdge{e, 0});
    const int pv = base.port_of(HalfEdge{e, 1});
    const NodeId up = mapped(u, tmpl.ports[static_cast<std::size_t>(pu)]);
    const NodeId vp = mapped(v, tmpl.ports[static_cast<std::size_t>(pv)]);
    port_edges.push_back(b.add_edge(up, vp));
  }

  out.instance.graph = std::move(b).build();
  const Graph& g = out.instance.graph;
  out.instance.gadget = GadgetLabels(g);
  out.instance.gadget.delta = delta;
  out.instance.port_edge = EdgeMap<bool>(g, false);
  out.instance.pi_input = NeLabeling(g);
  out.instance.family = family;

  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    out.meta.center[v] = mapped(v, tmpl.center);
    auto& ports = out.meta.port_node[v];
    ports.resize(static_cast<std::size_t>(delta));
    for (int i = 0; i < delta; ++i)
      ports[static_cast<std::size_t>(i)] =
          mapped(v, tmpl.ports[static_cast<std::size_t>(i)]);
    for (NodeId t = 0; t < tmpl.graph.num_nodes(); ++t) {
      const NodeId nv = mapped(v, t);
      out.instance.gadget.index[nv] = tmpl.labels.index[t];
      out.instance.gadget.port[nv] = tmpl.labels.port[t];
      out.instance.gadget.center[nv] = tmpl.labels.center[t];
      out.instance.gadget.vcolor[nv] = tmpl.labels.vcolor[t];
      // Every gadget node carries its base node's Π-input.
      out.instance.pi_input.node[nv] = base_input.node[v];
    }
  }
  for (const auto& hc : half_copies)
    out.instance.gadget.half[HalfEdge{hc.e, hc.side}] = hc.label;
  for (std::size_t i = 0; i < port_edges.size(); ++i) {
    const EdgeId pe = port_edges[i];
    const auto be = static_cast<EdgeId>(i);
    out.instance.port_edge[pe] = true;
    out.instance.pi_input.edge[pe] = base_input.edge[be];
    // PortEdge side 0 corresponds to the base edge's side 0 (see builder
    // order above), so half inputs map side-to-side.
    for (int side = 0; side < 2; ++side)
      out.instance.pi_input.half[HalfEdge{pe, side}] =
          base_input.half[HalfEdge{be, side}];
  }
  return out;
}

}  // namespace

PaddedBuild build_padded_instance(const Graph& base,
                                  const NeLabeling& base_input, int delta,
                                  int height) {
  PADLOCK_REQUIRE(height >= 3);
  const GadgetInstance tmpl = build_gadget(delta, height);
  return build_padded_from_template(base, base_input, delta, height, tmpl,
                                    GadgetFamilyKind::kTree);
}

PaddedBuild build_padded_instance_path(const Graph& base,
                                       const NeLabeling& base_input, int delta,
                                       int length) {
  PADLOCK_REQUIRE(length >= 2);
  const GadgetInstance tmpl = build_path_gadget(delta, length);
  return build_padded_from_template(base, base_input, delta, length, tmpl,
                                    GadgetFamilyKind::kPath);
}

GadgetSubgraph gadget_subgraph(const PaddedInstance& inst) {
  GadgetSubgraph s;
  GraphBuilder b(inst.graph.num_nodes());
  b.add_nodes(inst.graph.num_nodes());
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    if (inst.port_edge[e]) continue;
    b.add_edge(inst.graph.endpoint(e, 0), inst.graph.endpoint(e, 1));
    s.edge_to_padded.push_back(e);
  }
  s.graph = std::move(b).build();
  s.labels = GadgetLabels(s.graph);
  s.labels.delta = inst.gadget.delta;
  for (NodeId v = 0; v < s.graph.num_nodes(); ++v) {
    s.labels.index[v] = inst.gadget.index[v];
    s.labels.port[v] = inst.gadget.port[v];
    s.labels.center[v] = inst.gadget.center[v];
    s.labels.vcolor[v] = inst.gadget.vcolor[v];
  }
  for (EdgeId ve = 0; ve < s.graph.num_edges(); ++ve) {
    for (int side = 0; side < 2; ++side) {
      s.labels.half[HalfEdge{ve, side}] =
          inst.gadget.half[HalfEdge{s.edge_to_padded[ve], side}];
    }
  }
  return s;
}

}  // namespace padlock
