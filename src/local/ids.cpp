#include "local/ids.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "graph/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

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

namespace {

// Runs fn over [0, n) in kIdCheckChunk-node chunks: through the pool when
// there is more than one chunk, inline on the caller otherwise.
void for_id_chunks(std::size_t n, const ThreadPool::RangeFn& fn) {
  if (n <= kIdCheckChunk) {
    fn(0, n);
  } else {
    parallel_for(0, n, kIdCheckChunk, fn);
  }
}

}  // namespace

bool ids_valid(const Graph& g, const IdMap& ids) {
  const std::size_t n = g.num_nodes();
  if (ids.size() != n) return false;
  if (n == 0) return true;
  const std::uint64_t* id = &*ids.begin();

  std::mutex mu;
  std::uint64_t min_id = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_id = 0;
  for_id_chunks(n, [&](std::size_t b, std::size_t e) {
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    for (std::size_t v = b; v < e; ++v) {
      lo = std::min(lo, id[v]);
      hi = std::max(hi, id[v]);
    }
    std::lock_guard<std::mutex> lock(mu);
    min_id = std::min(min_id, lo);
    max_id = std::max(max_id, hi);
  });
  if (min_id < 1) return false;

  if (max_id > std::uint64_t{64} * n) {
    std::vector<std::uint64_t> sorted(id, id + n);
    std::sort(sorted.begin(), sorted.end());
    return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
  }

  std::vector<std::uint64_t> bits(max_id / 64 + 1, 0);
  std::atomic<bool> duplicate{false};
  for_id_chunks(n, [&](std::size_t b, std::size_t e) {
    if (duplicate.load(std::memory_order_relaxed)) return;
    for (std::size_t v = b; v < e; ++v) {
      const std::uint64_t mask = std::uint64_t{1} << (id[v] % 64);
      std::atomic_ref<std::uint64_t> word(bits[id[v] / 64]);
      if (word.fetch_or(mask, std::memory_order_relaxed) & mask) {
        duplicate.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  return !duplicate.load(std::memory_order_relaxed);
}

}  // namespace padlock
