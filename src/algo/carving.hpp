// Deterministic (O(log n), O(log n)) network decomposition by sequential
// greedy ball carving.
//
// The paper's Discussion ties the open D(n)/R(n) question to ND(n), the
// deterministic LOCAL complexity of (log n, log n)-network decomposition
// (best known upper bound 2^O(sqrt(log n)), Panconesi–Srinivasan). This
// module provides the *quality reference*: a deterministic construction
// that always achieves cluster radius <= log2 n and empirically O(log n)
// colors — but whose honest LOCAL round count is far from competitive
// (carvings within a phase are sequential). That gap — decomposition
// quality is easy, decomposition *locality* is the bottleneck — is exactly
// the phenomenon the Discussion describes, and bench E9's table (a) prints
// both this reference and the randomized Linial–Saks algorithm side by side.
//
// Phase c: repeatedly pick the lowest-id unclustered node still in the
// phase, grow a ball inside the phase-induced subgraph while it at least
// doubles (so the final radius is <= log2 n), carve the interior as a
// color-c cluster, and defer the boundary shell to phase c+1. Same-phase
// clusters are non-adjacent because every carved cluster's neighborhood is
// exactly the deferred shell.
#pragma once

#include "algo/decomposition.hpp"
#include "graph/graph.hpp"
#include "local/ids.hpp"

namespace padlock {

/// Deterministic ball-carving decomposition. Honest LOCAL accounting: the
/// returned `rounds` charges 2*(r+1) per carving, *sequentially* within
/// each phase (this is what makes it a reference, not an algorithm that
/// closes the open problem).
Decomposition carving_decomposition(const Graph& g, const IdMap& ids);

}  // namespace padlock
