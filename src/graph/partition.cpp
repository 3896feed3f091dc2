#include "graph/partition.hpp"

#include <algorithm>
#include <atomic>

namespace padlock {
namespace {

// Bounded per-graph memo (shard counts actually in play per graph are a
// handful; the bound only guards against a pathological sweep over shard
// counts).
constexpr std::size_t kPartitionStoreCapacity = 8;

std::atomic<std::int64_t> g_partition_hits{0};
std::atomic<std::int64_t> g_partition_misses{0};

}  // namespace

Partition Partition::build(const Graph& g, int shards) {
  const std::size_t n = g.num_nodes();
  const std::size_t slots = 2 * g.num_edges();
  const std::size_t num_words = (n + 63) / 64;

  // Word-aligned shards: never more shards than frontier words.
  std::size_t S = shards < 1 ? 1 : static_cast<std::size_t>(shards);
  S = std::min(S, std::max<std::size_t>(num_words, 1));

  // Words distributed evenly (difference of floors keeps the split
  // monotone and exhaustive), nodes and CSR ports following from the word
  // boundaries.
  Partition part;
  part.shards_.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    Shard& sh = part.shards_[s];
    sh.word_begin = num_words * s / S;
    sh.word_end = num_words * (s + 1) / S;
    sh.node_begin = static_cast<NodeId>(std::min(sh.word_begin * 64, n));
    sh.node_end = static_cast<NodeId>(std::min(sh.word_end * 64, n));
    sh.port_base =
        sh.node_begin < n ? g.port_offset(sh.node_begin) : slots;
    sh.port_end = sh.node_end < n ? g.port_offset(sh.node_end) : slots;
  }
  return part;
}

PartitionCacheCounters partition_cache_counters() {
  return {g_partition_hits.load(std::memory_order_relaxed),
          g_partition_misses.load(std::memory_order_relaxed)};
}

void reset_partition_cache_counters() {
  g_partition_hits.store(0, std::memory_order_relaxed);
  g_partition_misses.store(0, std::memory_order_relaxed);
}

std::shared_ptr<const Partition> Graph::partition(int shards) const {
  // Default-constructed graphs carry no store; build uncached (the engine
  // never partitions an empty graph, so this path is cold by construction).
  if (partitions_ == nullptr) {
    g_partition_misses.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const Partition>(Partition::build(*this, shards));
  }
  std::lock_guard<std::mutex> lock(partitions_->mu);
  for (const auto& [key, part] : partitions_->entries) {
    if (key == shards) {
      g_partition_hits.fetch_add(1, std::memory_order_relaxed);
      return part;
    }
  }
  g_partition_misses.fetch_add(1, std::memory_order_relaxed);
  auto part =
      std::make_shared<const Partition>(Partition::build(*this, shards));
  if (partitions_->entries.size() >= kPartitionStoreCapacity)
    partitions_->entries.erase(partitions_->entries.begin());
  partitions_->entries.emplace_back(shards, part);
  return part;
}

}  // namespace padlock
