// Maximal matching algorithms.
//
//  * randomized_matching: Israeli–Itai-style propose/accept — each iteration
//    (three communication rounds: propose, accept, confirm) every unmatched
//    node proposes along a random live port; proposal targets accept the
//    smallest-id proposer; a proposer that accepted nobody (or mutually)
//    confirms. O(log n) rounds w.h.p.
//
//  * matching_from_coloring: deterministic reduction — given a proper
//    k-coloring, color classes take turns greedily grabbing an incident free
//    edge (lowest port first); k iterations. Combined with Cole–Vishkin this
//    gives the classic O(log* n) matching on cycles.
//
// Self-loops are never matched (they cannot be: both halves are the same
// node); parallel edges are fine.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "local/ids.hpp"
#include "local/message_engine_stats.hpp"

namespace padlock {

struct MatchingResult {
  EdgeMap<bool> in_match;
  int rounds = 0;
};

MatchingResult randomized_matching(const Graph& g, const IdMap& ids,
                                   std::uint64_t seed,
                                   MessageEngineStats* stats = nullptr);

MatchingResult matching_from_coloring(const Graph& g,
                                      const NodeMap<int>& colors,
                                      int num_colors,
                                      MessageEngineStats* stats = nullptr);

class AlgorithmRegistry;

/// Registers matching/propose-accept and matching/color-greedy behind the unified runner API.
void register_matching_algos(AlgorithmRegistry& registry);

}  // namespace padlock
