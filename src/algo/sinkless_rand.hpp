// Randomized sinkless orientation — the fast side of the paper's base
// separation (randomized Θ(log log n) vs deterministic Θ(log n)).
//
// The Θ(log log n) algorithm the paper cites (Ghaffari–Su 2017) rests on
// distributed degree splitting and the algorithmic Lovász local lemma. We
// substitute a shattering-style algorithm that needs neither primitive and
// preserves the qualitative behavior (round counts far below the
// deterministic Θ(log n), growing like poly(log log n) on the bench
// instances):
//
//   Phase 1   One communication round: every edge orients toward the
//             endpoint half with the larger random priority (both endpoints
//             exchange random bits and evaluate the same comparison);
//             self-loops orient outright. A degree-d node is left
//             unsatisfied (out-degree 0) with probability ~2^-d, so the
//             unsatisfied set is sparse and shattered.
//   Phase 2   Local repair: an unsatisfied node BFS's backwards along
//             incoming edges for an augmenting structure - an unoriented
//             edge, a node of out-degree >= 2, or a node of degree <= 2 -
//             and flips the connecting path. Because every interior node of
//             the search has out-degree exactly 1 and degree >= 3, the
//             search tree branches by >= 2, so a repair always exists within
//             radius O(log n); under the random orientation the probability
//             that a radius-r ball contains no slack decays doubly
//             exponentially in r, so the deepest repair over the whole graph
//             has radius O(log log n) w.h.p. Repairs run in doubling-radius
//             sub-phases; initiators whose repair would touch another
//             repair defer by id and retry.
//
// Round accounting: 2 rounds per propose iteration, O(radius) per repair
// sub-phase; the returned report carries the totals.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "local/round_report.hpp"
#include "local/ids.hpp"
#include "lcl/problems/sinkless_orientation.hpp"

namespace padlock {

struct SinklessRandResult {
  Orientation tails;
  int rounds = 0;
  int propose_iterations = 0;
  int repair_subphases = 0;
  int max_repair_radius = 0;
  int unsatisfied_after_propose = 0;
};

/// Number of propose iterations in the fixed schedule for size bound n.
int sinkless_rand_propose_schedule(std::size_t n_known);

SinklessRandResult sinkless_orientation_rand(const Graph& g, const IdMap& ids,
                                             std::size_t n_known,
                                             std::uint64_t seed);

class AlgorithmRegistry;

/// Registers sinkless-orientation/propose-repair behind the unified runner API.
void register_sinkless_rand_algos(AlgorithmRegistry& registry);

}  // namespace padlock
