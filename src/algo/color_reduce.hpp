// Color reduction and coloring helpers.
//
//  * reduce_to_degree_plus_one: the classic schedule-by-color-class
//    reduction — given a proper k-coloring, produce a proper
//    (Δ+1)-coloring in k rounds (class c recolors greedily in round c).
//
//  * greedy_distance_coloring: *centralized* greedy distance-k coloring
//    with at most Δ^k + 1 colors. This is not a distributed algorithm; at
//    k = 2 it generates the distance-2-coloring *input labels* that §4.6
//    of the paper adds to gadgets to make self-loop/parallel-edge errors
//    node-edge checkable.
#pragma once

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "local/message_engine_stats.hpp"

namespace padlock {

struct ColorReduceResult {
  NodeMap<int> colors;  // 1..Δ+1
  int rounds = 0;
};

/// Requires `colors` to be a proper coloring with values in 1..num_colors.
/// Self-loops make proper coloring impossible; asserts their absence.
ColorReduceResult reduce_to_degree_plus_one(const Graph& g,
                                            const NodeMap<int>& colors,
                                            int num_colors,
                                            MessageEngineStats* stats = nullptr);

/// Greedy proper distance-k coloring (distinct colors within distance k),
/// 1-based; at most Δ^k + 1 colors. Returns the number of colors used via
/// `num_colors_out` (may be null). Centralized input generator. Requires a
/// loop-free graph (a self-loop admits no proper coloring).
NodeMap<int> greedy_distance_coloring(const Graph& g, int k,
                                      int* num_colors_out);

/// True iff distinct nodes within distance k always have distinct colors
/// (so endpoints of parallel edges differ too); false on a self-loop.
bool is_distance_coloring(const Graph& g, const NodeMap<int>& colors, int k);

class AlgorithmRegistry;

/// Registers coloring/color-reduce (schedule-by-class from raw ids) behind the unified runner API.
void register_color_reduce_algos(AlgorithmRegistry& registry);

}  // namespace padlock
