// Luby's randomized maximal independent set — O(log n) rounds w.h.p.
//
// Per iteration (two communication rounds): every undecided node draws a
// random priority; strict local minima (ties broken by id) join the set;
// undecided neighbors of fresh set members drop out.
//
// Runs on the message engine; requires a loop-free graph (a self-loop makes
// MIS membership of its node contradictory). Parallel edges are harmless.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "local/ids.hpp"
#include "local/message_engine_stats.hpp"

namespace padlock {

struct MisResult {
  NodeMap<bool> in_set;
  int rounds = 0;
};

MisResult luby_mis(const Graph& g, const IdMap& ids, std::uint64_t seed,
                   MessageEngineStats* stats = nullptr);

class AlgorithmRegistry;

/// Registers mis/luby behind the unified runner API.
void register_luby_mis_algos(AlgorithmRegistry& registry);

}  // namespace padlock
