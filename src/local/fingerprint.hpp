// Canonical radius-T views — the indistinguishability tool behind every
// LOCAL-model lower bound (including the paper's Lemma 5 simulation
// argument): a deterministic T-round algorithm's output at v is a function
// of v's radius-T view, so two nodes with *equal* views — even in
// different graphs — must produce identical outputs.
//
// The view is the port-numbered unfolded neighborhood (the truncated
// universal cover) decorated with ids and input labels: view(v, 0) is v's
// own decorations and degree; view(v, r) additionally lists, per port, the
// edge/half decorations and the far endpoint's view at radius r-1. Equal
// canonical encodings <=> equal views; the encoding grows exponentially in
// r, so this is a test/audit facility, not a runtime data structure.
//
// The file also holds the 64-bit output digests the committed golden maps
// (tests/data/*.json) key their expected results on.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "lcl/ne_lcl.hpp"
#include "local/ids.hpp"

namespace padlock {

/// FNV-1a digest of a labeling: node labels in node order, then per edge
/// its label and both half labels. Equal labelings digest equally.
[[nodiscard]] std::uint64_t labeling_fingerprint(const NeLabeling& l);

/// The same digest over a per-node map (e.g. RoundReport::node_rounds).
[[nodiscard]] std::uint64_t node_map_fingerprint(const NodeMap<int>& m);

/// FNV-1a digest of a graph's topology and port numbering: n, m, the
/// endpoints in edge order, then each node's (edge, side) port list in
/// port order. Equal digests mean the same instance down to port order.
[[nodiscard]] std::uint64_t graph_fingerprint(const Graph& g);

/// Canonical encoding of view(v, radius). `input` may be null (no input
/// labels). Equality is computed by levelwise signature interning, so two
/// fingerprints are comparable iff they come from calls with the *same*
/// (g, ids, input) — the interning is deterministic per graph. For
/// cross-graph comparisons use views_equal, which interns jointly.
std::string view_fingerprint(const Graph& g, const IdMap& ids,
                             const NeLabeling* input, NodeId v, int radius);

/// Convenience: true iff view(v1 in g1) == view(v2 in g2) at `radius`.
bool views_equal(const Graph& g1, const IdMap& ids1, const NeLabeling* in1,
                 NodeId v1, const Graph& g2, const IdMap& ids2,
                 const NeLabeling* in2, NodeId v2, int radius);

}  // namespace padlock
