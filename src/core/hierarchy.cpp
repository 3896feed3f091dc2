#include "core/hierarchy.hpp"

#include <algorithm>
#include <functional>

#include "graph/builders.hpp"
#include "gadget/path_gadget.hpp"

namespace padlock {

namespace {

// Bit layout of one padding layer inside a 64-bit label.
// node:  [0..5] index | [6..11] port | [12] center | [13..32] vcolor |
//        [33..38] delta | [39] path family | [40..62] deeper
// edge:  [0] port_edge | [1..62] deeper
// half:  [0..5] half label | [6..62] deeper
constexpr int kDeeperNodeShift = 40;
constexpr Label kMaxDeeperNode = (Label{1} << (62 - kDeeperNodeShift)) - 1;

}  // namespace

Label encode_padded_node(int delta, int index, int port, bool center,
                         int vcolor, Label deeper, bool path_family) {
  PADLOCK_REQUIRE(delta >= 0 && delta < 64);
  PADLOCK_REQUIRE(index >= 0 && index < 64);
  PADLOCK_REQUIRE(port >= 0 && port < 64);
  PADLOCK_REQUIRE(vcolor >= 0 && vcolor < (1 << 20));
  PADLOCK_REQUIRE(deeper >= 0 && deeper <= kMaxDeeperNode);
  return Label{index} | (Label{port} << 6) | (Label{center ? 1 : 0} << 12) |
         (Label{vcolor} << 13) | (Label{delta} << 33) |
         (Label{path_family ? 1 : 0} << 39) | (deeper << kDeeperNodeShift);
}

DecodedNode decode_padded_node(Label l) {
  DecodedNode d;
  d.index = static_cast<int>(l & 63);
  d.port = static_cast<int>((l >> 6) & 63);
  d.center = ((l >> 12) & 1) != 0;
  d.vcolor = static_cast<int>((l >> 13) & ((1 << 20) - 1));
  d.delta = static_cast<int>((l >> 33) & 63);
  d.path_family = ((l >> 39) & 1) != 0;
  d.deeper = l >> kDeeperNodeShift;
  return d;
}

Label encode_padded_edge(bool port_edge, Label deeper) {
  PADLOCK_REQUIRE(deeper >= 0 && deeper < (Label{1} << 62));
  return Label{port_edge ? 1 : 0} | (deeper << 1);
}

bool decode_padded_edge(Label l, Label* deeper) {
  if (deeper != nullptr) *deeper = l >> 1;
  return (l & 1) != 0;
}

Label encode_padded_half(int half_label, Label deeper) {
  PADLOCK_REQUIRE(half_label >= 0 && half_label < 64);
  PADLOCK_REQUIRE(deeper >= 0 && deeper < (Label{1} << 56));
  return Label{half_label} | (deeper << 6);
}

int decode_padded_half(Label l, Label* deeper) {
  if (deeper != nullptr) *deeper = l >> 6;
  return static_cast<int>(l & 63);
}

NeLabeling encode_padded_instance(const PaddedInstance& inst) {
  const Graph& g = inst.graph;
  NeLabeling out(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    out.node[v] = encode_padded_node(
        inst.gadget.delta, inst.gadget.index[v], inst.gadget.port[v],
        inst.gadget.center[v], inst.gadget.vcolor[v], inst.pi_input.node[v],
        inst.family == GadgetFamilyKind::kPath);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    out.edge[e] = encode_padded_edge(inst.port_edge[e], inst.pi_input.edge[e]);
    for (int side = 0; side < 2; ++side)
      out.half[HalfEdge{e, side}] =
          encode_padded_half(inst.gadget.half[HalfEdge{e, side}],
                             inst.pi_input.half[HalfEdge{e, side}]);
  }
  return out;
}

PaddedInstance decode_padded_instance(const Graph& g,
                                      const NeLabeling& input) {
  PaddedInstance inst;
  inst.graph = g;
  inst.gadget = GadgetLabels(g);
  inst.port_edge = EdgeMap<bool>(g, false);
  inst.pi_input = NeLabeling(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const DecodedNode d = decode_padded_node(input.node[v]);
    if (d.path_family) inst.family = GadgetFamilyKind::kPath;
    inst.gadget.index[v] = d.index;
    inst.gadget.port[v] = d.port;
    inst.gadget.center[v] = d.center;
    inst.gadget.vcolor[v] = d.vcolor;
    inst.gadget.delta = std::max(inst.gadget.delta, d.delta);
    inst.pi_input.node[v] = d.deeper;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    Label deeper = 0;
    inst.port_edge[e] = decode_padded_edge(input.edge[e], &deeper);
    inst.pi_input.edge[e] = deeper;
    for (int side = 0; side < 2; ++side) {
      inst.gadget.half[HalfEdge{e, side}] =
          decode_padded_half(input.half[HalfEdge{e, side}], &deeper);
      inst.pi_input.half[HalfEdge{e, side}] = deeper;
    }
  }
  return inst;
}

namespace {

// The level-1 base: a random cubic graph (every node degree 3, the minimum
// for sinkless orientation to be non-trivial) on `base_nodes` rounded up
// to even and at least 4.
std::size_t base_size(std::size_t base_nodes) {
  return std::max<std::size_t>(base_nodes + base_nodes % 2, 4);
}

/// Builds the base and pads it `levels - 1` times; `pad(level, graph,
/// input, delta)` pads the level-(level-1) instance into level `level`.
Hierarchy build_levels(
    int levels, std::size_t base_nodes, std::uint64_t seed,
    const std::function<PaddedBuild(int, const Graph&, const NeLabeling&,
                                    int)>& pad) {
  PADLOCK_REQUIRE(levels >= 1);
  Hierarchy h;
  h.levels = levels;
  h.base = build::random_regular_simple(base_size(base_nodes), 3,
                                        seed ^ 0xBA5Eull);

  const Graph* cur = &h.base;
  NeLabeling cur_input(*cur);  // sinkless orientation has no inputs
  for (int lvl = 2; lvl <= levels; ++lvl) {
    h.padded.push_back(
        pad(lvl, *cur, cur_input, std::max(3, cur->max_degree())));
    cur = &h.padded.back().instance.graph;
    // Only re-encode if another padding level will consume it (one label
    // holds one layer of structure plus the next layer's encoding; the
    // reserved bits bound the practical depth, which instance sizes bound
    // far earlier anyway).
    if (lvl < levels)
      cur_input = encode_padded_instance(h.padded.back().instance);
  }
  return h;
}

}  // namespace

HierarchyPlan plan_hierarchy(int levels, std::size_t base_nodes) {
  // Balanced: gadgets of roughly the previous instance's size.
  HierarchyPlan plan;
  plan.max_nodes = base_size(base_nodes);
  int delta = 3;
  for (int lvl = 2; lvl <= levels; ++lvl) {
    const int h = std::max(3, height_for_gadget_nodes(delta, plan.max_nodes));
    plan.heights.push_back(h);
    plan.max_nodes = padded_size(plan.max_nodes, delta, h);
    delta = 5;  // padded instances have max degree 5
  }
  return plan;
}

Hierarchy build_hierarchy(int levels, std::size_t base_nodes,
                          std::uint64_t seed) {
  return build_hierarchy_with_heights(
      levels, base_nodes, plan_hierarchy(levels, base_nodes).heights, seed);
}

Hierarchy build_hierarchy_with_heights(int levels, std::size_t base_nodes,
                                       const std::vector<int>& heights,
                                       std::uint64_t seed) {
  PADLOCK_REQUIRE(heights.size() + 1 >= static_cast<std::size_t>(levels));
  return build_levels(
      levels, base_nodes, seed,
      [&](int lvl, const Graph& g, const NeLabeling& input, int delta) {
        return build_padded_instance(
            g, input, delta, heights[static_cast<std::size_t>(lvl - 2)]);
      });
}

Hierarchy build_path_hierarchy(int levels, std::size_t base_nodes,
                               std::uint64_t seed) {
  return build_levels(
      levels, base_nodes, seed,
      [](int, const Graph& g, const NeLabeling& input, int delta) {
        return build_padded_instance_path(
            g, input, delta, path_length_for_size(delta, g.num_nodes()));
      });
}

namespace {

/// Level 1: the registered leaf, checked by its problem's ne-LCL.
AlgoResult solve_leaf(const AlgoSpec& leaf, const RunContext& ctx,
                      HierarchySolveResult& diag) {
  AlgoResult r = leaf.solve(ctx);
  const auto lcl =
      AlgorithmRegistry::instance().problem(leaf.problem).make_lcl(ctx.graph);
  diag.leaf_rounds = r.rounds.rounds;
  diag.leaf_output_sinkless =
      check_ne_lcl(ctx.graph, *lcl, ctx.input, r.output).ok;
  return r;
}

/// Recursive Lemma 4 solver. `level` counts down to 2, whose virtual graph
/// is the leaf's instance.
AlgoResult solve_level(int level, const AlgoSpec& leaf,
                       const PaddedInstance& inst, const IdMap& ids,
                       std::size_t n_known, std::uint64_t seed,
                       HierarchySolveResult& diag) {
  // At level 2 the virtual graph is the leaf's instance, so the leaf's
  // precondition applies there.
  AlgoSpec inner = level == 2 ? leaf : AlgoSpec{};
  inner.solve = [&](const RunContext& ctx) {
    if (level == 2) return solve_leaf(leaf, ctx, diag);
    return solve_level(level - 1, leaf,
                       decode_padded_instance(ctx.graph, ctx.input), ctx.ids,
                       ctx.n_known, ctx.seed, diag);
  };
  PiPrimeSolveResult res = solve_pi_prime(inst, inner, ids, n_known, seed);
  // Innermost level first; the outermost solve finishes last and wins.
  diag.stretch_per_level.push_back(res.stretch);
  // The structured Π' output of this level is summarized for the layer
  // above: a level-(i) node's "output label" seen by level i+1 is the
  // Σ_list digest. Round accounting is exact, but the output is flattened:
  // the layer above sees only this digest, not the full structured Π'
  // output, so with three or more levels the inner levels' outputs are not
  // checked end to end (the leaf's sinkless check is).
  AlgoResult out{.output = NeLabeling(inst.graph),
                 .rounds = res.report,
                 .stats = {}};
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
    out.output.node[v] =
        static_cast<Label>(res.output.psi.kind[v]) |
        (static_cast<Label>(res.output.port_status[v]) << 8);
  diag.top = std::move(res);
  return out;
}

}  // namespace

HierarchySolveResult solve_hierarchy(const Hierarchy& h, const AlgoSpec& leaf,
                                     std::uint64_t seed) {
  if (leaf.problem != "sinkless-orientation")
    throw RegistryError("the hierarchy's leaf solves sinkless-orientation, "
                        "not '" + leaf.problem + "'");
  HierarchySolveResult diag;
  const Graph& top = h.top_graph();
  const IdMap ids = shuffled_ids(top, seed ^ 0x1D5ull);
  const std::size_t n = top.num_nodes();
  if (h.levels == 1) {
    const NeLabeling input(top);
    solve_leaf(leaf,
               RunContext{.graph = top,
                          .ids = ids,
                          .id_space = n,
                          .seed = seed,
                          .input = input,
                          .n_known = n},
               diag);
    diag.rounds = diag.leaf_rounds;
  } else {
    diag.rounds = solve_level(h.levels, leaf, h.padded.back().instance, ids,
                              n, seed, diag)
                      .rounds.rounds;
  }
  return diag;
}

}  // namespace padlock
