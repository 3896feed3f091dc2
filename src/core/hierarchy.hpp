// Theorem 11: the hierarchy Π_1, Π_2, … where Π_1 is sinkless orientation
// and Π_{i+1} = pad(Π_i) with the (log, Δ)-gadget family and f(x) = ⌊√x⌋.
//
// Instances are built bottom-up with *balanced* padding (the worst case of
// Lemma 5): the level-(i+1) instance takes the level-i instance as its base
// graph and uses gadgets of roughly the base's size, so the base is the
// square root of the new instance. The level-i structure travels as the
// inner problem's input labels (encode/decode below — one padding level of
// structure per label, which covers the hierarchy as deep as the instance
// sizes stay tractable anyway).
//
// The solver recursion mirrors Lemma 4 at every level: verify gadgets,
// contract, decode the virtual graph's labels back into a level-(i-1)
// instance, recurse, write back. Round accounting composes: at each level
// the inner round count is multiplied by the gadget stretch and the
// verifier cost is added — exactly the T(Π') = O(T(Π, √n) · log n) shape.
#pragma once

#include <functional>

#include "core/pi_prime.hpp"

namespace padlock {

/// Packs one level of padded structure into Π-input labels.
Label encode_padded_node(int delta, int index, int port, bool center,
                         int vcolor, Label deeper, bool path_family = false);
Label encode_padded_edge(bool port_edge, Label deeper);
Label encode_padded_half(int half_label, Label deeper);

struct DecodedNode {
  int delta = 0;
  int index = 0;
  int port = 0;
  bool center = false;
  int vcolor = 0;
  bool path_family = false;
  Label deeper = kEmptyLabel;
};
DecodedNode decode_padded_node(Label l);
bool decode_padded_edge(Label l, Label* deeper);
int decode_padded_half(Label l, Label* deeper);

/// Rebuilds a PaddedInstance from a graph whose Π-input labels carry an
/// encoded padding layer (the inverse of the encode_* family).
PaddedInstance decode_padded_instance(const Graph& g,
                                      const NeLabeling& input);

/// Encodes `inst`'s structure layer into a Π-input labeling whose deeper
/// layer is inst.pi_input (which must fit the reserved bits).
NeLabeling encode_padded_instance(const PaddedInstance& inst);

struct Hierarchy {
  int levels = 1;
  /// The level-1 base graph.
  Graph base;
  /// padded[k] = the level-(k+2) build (padded[0] is Π_2's instance, …);
  /// padded.back() is the outermost instance to solve.
  std::vector<PaddedBuild> padded;

  [[nodiscard]] const Graph& top_graph() const {
    return levels == 1 ? base : padded.back().instance.graph;
  }
  [[nodiscard]] std::size_t total_nodes() const {
    return top_graph().num_nodes();
  }
};

/// The admission bound of `padlock_cli solve`, `pad` and `gadget`: the
/// most nodes an instance they build may have. At about 810 B per padded node, 2^23
/// nodes take about 6.8 GB. It admits Π_2 up to base 2048 (6,287,360
/// nodes) and Π_3 up to base 32 (at most 3,762,432).
inline constexpr std::size_t kMaxPaddedNodes = std::size_t{1} << 23;

/// What build_hierarchy(levels, base_nodes, ·) builds, computed without
/// building it: the gadget height of each padding level (level 2 first)
/// and an upper bound on the top instance's node count, saturating at
/// SIZE_MAX. The bound takes every level from 3 on at degree 5, the
/// padded graphs' maximum, so it is exact for levels <= 2 and can exceed
/// the built size above (base 4 at three levels: 13,728 predicted, 11,000
/// built).
struct HierarchyPlan {
  std::vector<int> heights;
  std::size_t max_nodes = 0;
};
HierarchyPlan plan_hierarchy(int levels, std::size_t base_nodes);

/// Builds a balanced Π_levels instance over a random cubic base with
/// `base_nodes` nodes. Each padding level uses gadgets of roughly the
/// previous instance's size (the Lemma 5 worst case).
Hierarchy build_hierarchy(int levels, std::size_t base_nodes,
                          std::uint64_t seed);

/// Builds with an explicit gadget height per level (ablation bench E5).
Hierarchy build_hierarchy_with_heights(int levels, std::size_t base_nodes,
                                       const std::vector<int>& heights,
                                       std::uint64_t seed);

/// Theorem 1 instantiated with the path (linear, Δ) family instead of the
/// tree family: level-(i+1) pads the level-i instance with path gadgets of
/// roughly its own size. For Π_2 this realizes deterministic complexity
/// Θ(√N log √N) and randomized Θ(√N log log √N) (bench E8); deeper levels
/// compound the polynomial stretch.
Hierarchy build_path_hierarchy(int levels, std::size_t base_nodes,
                               std::uint64_t seed);

struct HierarchySolveResult {
  int rounds = 0;        // LOCAL rounds on the outermost instance
  int leaf_rounds = 0;   // rounds of the level-1 solver on its instance
  std::vector<int> stretch_per_level;  // outermost first
  bool leaf_output_sinkless = false;   // the level-1 solution checked
  PiPrimeSolveResult top;              // outermost Π' diagnostics (levels>1)
};

/// Solves the hierarchy instance end to end. `leaf` is the registered
/// sinkless-orientation algorithm of level 1 (RegistryError for any other
/// problem); its output is checked by the problem's ne-LCL. Ids are
/// assigned fresh per level from `seed`, which also feeds a randomized
/// leaf (virtual ids follow Lemma 4's smallest-contained-id rule
/// automatically).
HierarchySolveResult solve_hierarchy(const Hierarchy& h, const AlgoSpec& leaf,
                                     std::uint64_t seed);

}  // namespace padlock
