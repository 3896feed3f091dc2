// Distributed distance-k coloring and (α, β)-ruling sets via graph powers.
//
// The gadget constructions of §4.6 consume a distance-2 coloring as an
// *input* (generated centrally by greedy_distance_coloring(g, 2, …)). This
// module closes the loop: the same colorings are computable distributedly in
// Θ(k · log* n) rounds by running Linial on G^k — each G^k round is a
// k-hop gather on G. Likewise, an (α, β)-ruling set is an AGLP run on
// G^{α-1}.
#pragma once

#include <cstdint>

#include "algo/ruling_set.hpp"
#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "local/ids.hpp"

namespace padlock {

struct DistColoringResult {
  NodeMap<int> colors;  // proper at distance k, 1..(Δ^k)+1
  int num_colors = 0;   // palette bound handed to the reduction
  int rounds = 0;       // charged on the base graph (k × power-graph rounds)
};

/// Distance-k coloring of loop-free `g` in O(k log* n) base-graph rounds.
DistColoringResult distance_k_coloring(const Graph& g, const IdMap& ids,
                                       std::uint64_t id_space, int k);

/// (alpha, beta)-ruling set, alpha >= 2: AGLP on G^{alpha-1}. The measured
/// beta is at most (alpha-1) * 2 * id-bits; independence is at distance
/// alpha. Rounds are charged on the base graph.
RulingSetResult ruling_set_power(const Graph& g, const IdMap& ids,
                                 std::uint64_t id_space, int alpha);

class AlgorithmRegistry;

/// Registers dist2-coloring/power-linial behind the unified runner API.
void register_dist_coloring_algos(AlgorithmRegistry& registry);

}  // namespace padlock
