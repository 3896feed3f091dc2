#include "gadget/gadget.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>

#include "algo/color_reduce.hpp"
#include "support/check.hpp"

namespace padlock {

std::string half_label_name(int label) {
  switch (label) {
    case kHalfNone:
      return "-";
    case kHalfParent:
      return "Parent";
    case kHalfRight:
      return "Right";
    case kHalfLeft:
      return "Left";
    case kHalfLChild:
      return "LChild";
    case kHalfRChild:
      return "RChild";
    case kHalfUp:
      return "Up";
    default:
      if (is_down_label(label))
        return "Down" + std::to_string(down_index(label));
      return "?" + std::to_string(label);
  }
}

std::size_t gadget_size(int delta, int height) {
  PADLOCK_REQUIRE(delta >= 1 && height >= 1);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (height >= std::numeric_limits<std::size_t>::digits) return kMax;
  std::size_t body = 0;
  if (__builtin_mul_overflow(static_cast<std::size_t>(delta),
                             (std::size_t{1} << height) - 1, &body) ||
      body == kMax)
    return kMax;
  return body + 1;
}

int gadget_height_for_size(int delta, std::size_t target_nodes) {
  PADLOCK_REQUIRE(delta >= 1);
  // delta * (2^h - 1) + 1 >= target  <=>  2^h - 1 >= ceil((target - 1) /
  // delta)  <=>  h >= bit_width of that quotient: a closed form, so no
  // size is computed and any target terminates (at most 64).
  const std::size_t rest = target_nodes > 1 ? target_nodes - 1 : 0;
  const std::size_t per_sub = rest / static_cast<std::size_t>(delta) +
                              (rest % static_cast<std::size_t>(delta) != 0);
  return std::max(2, static_cast<int>(std::bit_width(per_sub)));
}

GadgetInstance build_gadget(int delta, int height) {
  PADLOCK_REQUIRE(delta >= 1);
  PADLOCK_REQUIRE(height >= 2);

  GraphBuilder b(gadget_size(delta, height));
  const std::size_t per_sub = (std::size_t{1} << height) - 1;

  // Node layout: center first, then sub-gadget s (1-based) occupies
  // [1 + (s-1)*per_sub, 1 + s*per_sub); inside a sub-gadget, node (l, x)
  // sits at offset 2^l - 1 + x (heap order).
  const NodeId center = b.add_node();
  b.add_nodes(per_sub * static_cast<std::size_t>(delta));
  auto at = [&](int s, int level, std::size_t x) {
    const std::size_t offset = (std::size_t{1} << level) - 1 + x;
    return static_cast<NodeId>(1 + static_cast<std::size_t>(s - 1) * per_sub +
                               offset);
  };

  struct PendingHalf {
    EdgeId e;
    int side;
    int label;
  };
  std::vector<PendingHalf> halves;
  auto add_labeled_edge = [&](NodeId u, NodeId v, int lu, int lv) {
    const EdgeId e = b.add_edge(u, v);
    halves.push_back({e, 0, lu});
    halves.push_back({e, 1, lv});
  };

  GadgetInstance inst;
  inst.center = center;
  inst.height = height;
  inst.ports.resize(static_cast<std::size_t>(delta), kNoNode);

  for (int s = 1; s <= delta; ++s) {
    // Tree + horizontal edges.
    for (int level = 0; level < height; ++level) {
      const std::size_t width = std::size_t{1} << level;
      for (std::size_t x = 0; x < width; ++x) {
        const NodeId u = at(s, level, x);
        if (level + 1 < height) {
          add_labeled_edge(u, at(s, level + 1, 2 * x), kHalfLChild,
                           kHalfParent);
          add_labeled_edge(u, at(s, level + 1, 2 * x + 1), kHalfRChild,
                           kHalfParent);
        }
        if (x + 1 < width)
          add_labeled_edge(u, at(s, level, x + 1), kHalfRight, kHalfLeft);
      }
    }
    // Root to center.
    add_labeled_edge(center, at(s, 0, 0), down_label(s), kHalfUp);
  }

  inst.graph = std::move(b).build();
  inst.labels = GadgetLabels(inst.graph);
  inst.labels.delta = delta;
  inst.labels.center[center] = true;
  for (int s = 1; s <= delta; ++s) {
    for (int level = 0; level < height; ++level) {
      const std::size_t width = std::size_t{1} << level;
      for (std::size_t x = 0; x < width; ++x)
        inst.labels.index[at(s, level, x)] = s;
    }
    const NodeId port = at(s, height - 1, (std::size_t{1} << (height - 1)) - 1);
    inst.labels.port[port] = s;
    inst.ports[static_cast<std::size_t>(s - 1)] = port;
  }
  for (const auto& ph : halves)
    inst.labels.half[HalfEdge{ph.e, ph.side}] = ph.label;

  inst.labels.vcolor = greedy_distance_coloring(inst.graph, 4, nullptr);
  return inst;
}

NodeId follow_label(const Graph& g, const GadgetLabels& labels, NodeId v,
                    int label) {
  NodeId found = kNoNode;
  for (int p = 0; p < g.degree(v); ++p) {
    const HalfEdge h = g.incidence(v, p);
    if (labels.half[h] != label) continue;
    if (found != kNoNode) return kNoNode;  // ambiguous
    found = g.node_across(h);
  }
  return found;
}

}  // namespace padlock
