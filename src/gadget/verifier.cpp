#include "gadget/verifier.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/metrics.hpp"

namespace padlock {

NodeMap<bool> label_chain_reaches(const Graph& g, const GadgetLabels& labels,
                                  const NodeMap<bool>& target, int label) {
  const std::size_t n = g.num_nodes();
  NodeMap<bool> reaches(n, false);
  // 0 unvisited, 1 on the current walk, 2 decided.
  std::vector<unsigned char> state(n, 0);
  std::vector<NodeId> walk;
  for (NodeId s = 0; s < n; ++s) {
    if (state[s] != 0) continue;
    // Walk until a dead end, a target, a decided node, or a node of this
    // walk (a cycle none of whose steps reaches a target).
    bool value = false;
    for (NodeId v = s;;) {
      state[v] = 1;
      walk.push_back(v);
      const NodeId w = follow_label(g, labels, v, label);
      if (w == kNoNode) break;
      if (target[w]) {
        value = true;
        break;
      }
      if (state[w] == 2) {
        value = reaches[w];
        break;
      }
      if (state[w] == 1) break;
      v = w;
    }
    for (const NodeId u : walk) {
      state[u] = 2;
      reaches[u] = value;
    }
    walk.clear();
  }
  return reaches;
}

RoundReport gadget_round_report(const Graph& g) {
  const Components comps = connected_components(g);
  std::vector<NodeId> from(static_cast<std::size_t>(comps.count), kNoNode);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    NodeId& s = from[static_cast<std::size_t>(comps.id[v])];
    if (s == kNoNode) s = v;
  }
  NodeMap<int> dist = bfs_distances(g, from);
  NodeMap<int> prev;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      NodeId& far = from[static_cast<std::size_t>(comps.id[v])];
      if (dist[v] > dist[far]) far = v;
    }
    prev = std::exchange(dist, bfs_distances(g, from));
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    dist[v] = std::max(dist[v], prev[v]);
  return RoundReport::from(std::move(dist));
}

VerifierResult run_gadget_verifier(const Graph& g,
                                   const GadgetLabels& labels) {
  const auto n = g.num_nodes();
  VerifierResult result{PsiOutput(g, kPsiOk), gadget_round_report(g), false};

  // Steps 1–2: constant-radius structural checks.
  const auto structure = check_gadget_structure(g, labels, 0);
  if (structure.all_ok) return result;  // step 4 everywhere
  result.found_error = true;
  NodeMap<bool> bad(g, false);
  for (NodeId v = 0; v < n; ++v) bad[v] = !structure.node_ok[v];

  // Which components contain a violation?
  const auto comps = connected_components(g);
  std::vector<bool> comp_bad(static_cast<std::size_t>(comps.count), false);
  for (NodeId v = 0; v < n; ++v)
    if (bad[v]) comp_bad[static_cast<std::size_t>(comps.id[v])] = true;

  // The patterns of steps 5–6, one memoized pass per label: Right^+ or
  // Left^+ to an error; then `sweep` (an error, reached or standing) at
  // the end of Parent^+ or RChild^+.
  const auto right = label_chain_reaches(g, labels, bad, kHalfRight);
  const auto left = label_chain_reaches(g, labels, bad, kHalfLeft);
  NodeMap<bool> sweep(g, false);
  for (NodeId v = 0; v < n; ++v) sweep[v] = bad[v] || right[v] || left[v];
  const auto parent = label_chain_reaches(g, labels, sweep, kHalfParent);
  const auto rchild = label_chain_reaches(g, labels, sweep, kHalfRChild);

  for (NodeId v = 0; v < n; ++v) {
    if (!comp_bad[static_cast<std::size_t>(comps.id[v])]) continue;  // Ok
    if (bad[v]) {
      result.output[v] = kPsiError;  // step 2
      continue;
    }
    if (labels.center[v]) {
      // Step 5: smallest Down_i whose RChild^* then Right^*|Left^* pattern
      // reaches an error.
      int chosen = 0;
      for (int i = 1; i <= labels.delta && chosen == 0; ++i) {
        const NodeId w = follow_label(g, labels, v, down_label(i));
        if (w != kNoNode && (sweep[w] || rchild[w])) chosen = i;
      }
      PADLOCK_REQUIRE(chosen != 0);  // Lemma 10's case analysis
      result.output[v] = psi_pointer(down_label(chosen));
      continue;
    }
    // Step 6, checked in order.
    if (right[v]) {
      result.output[v] = psi_pointer(kHalfRight);
    } else if (left[v]) {
      result.output[v] = psi_pointer(kHalfLeft);
    } else if (parent[v]) {
      result.output[v] = psi_pointer(kHalfParent);
    } else if (rchild[v]) {
      result.output[v] = psi_pointer(kHalfRChild);
    } else {
      // Step 6e: valid sub-gadget, error elsewhere: route to the center.
      const NodeId up = follow_label(g, labels, v, kHalfParent);
      result.output[v] = psi_pointer(up != kNoNode ? kHalfParent : kHalfUp);
    }
  }
  return result;
}

}  // namespace padlock
