#include "local/ids.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <vector>

#include "graph/metrics.hpp"
#include "support/rng.hpp"

namespace padlock {

IdMap sequential_ids(const Graph& g) {
  IdMap ids(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v + 1;
  return ids;
}

IdMap shuffled_ids(const Graph& g, std::uint64_t seed) {
  std::vector<std::uint64_t> pool(g.num_nodes());
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = i + 1;
  Rng rng(seed);
  for (std::size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng.below(i)]);
  IdMap ids(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = pool[v];
  return ids;
}

std::uint64_t sparse_id_space(std::uint64_t n) {
  std::uint64_t square = 0;
  std::uint64_t cube = 0;
  if (__builtin_mul_overflow(n, n, &square) ||
      __builtin_mul_overflow(square, n, &cube)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return cube;
}

IdMap sparse_ids(const Graph& g, std::uint64_t seed) {
  const auto n = g.num_nodes();
  const std::uint64_t space = std::max<std::uint64_t>(sparse_id_space(n), 8);
  Rng rng(seed);
  std::unordered_set<std::uint64_t> used;
  IdMap ids(g, 0);
  for (NodeId v = 0; v < n; ++v) {
    std::uint64_t id = 0;
    do {
      id = 1 + rng.below(space);
    } while (!used.insert(id).second);
    ids[v] = id;
  }
  return ids;
}

IdMap bfs_adversarial_ids(const Graph& g) {
  IdMap ids(g, 0);
  if (g.num_nodes() == 0) return ids;
  const auto dist = bfs_distances(g, NodeId{0});
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return dist[a] < dist[b];
  });
  // Nearest nodes get the largest ids.
  std::uint64_t next = g.num_nodes();
  for (NodeId v : order) ids[v] = next--;
  return ids;
}

bool ids_valid(const Graph& g, const IdMap& ids) {
  if (ids.size() != g.num_nodes()) return false;
  std::unordered_set<std::uint64_t> seen;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ids[v] < 1) return false;
    if (!seen.insert(ids[v]).second) return false;
  }
  return true;
}

}  // namespace padlock
