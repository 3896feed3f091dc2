// Node-space partition of a port-numbered graph — the shard geometry the
// pinned round executor (local/engine_pinned.hpp) runs on.
//
// A Partition splits the node space into `num_shards()` *contiguous* shards
// whose boundaries are aligned to 64-node frontier words, so every word of
// the engine's active/drain bitsets belongs to exactly one shard and one
// worker. Because nodes are contiguous and the graph's port slab is
// CSR-ordered, each shard also owns one contiguous range of CSR port
// positions [port_base, port_end): a port slot i of shard s is read across
// the cut iff Graph::peer_port()[i] lies outside that range.
//
// Determinism: the geometry is a pure function of (graph, shard count).
// The shard count is clamped to the number of frontier words (a shard
// smaller than one word cannot be word-aligned), so tiny graphs degrade
// gracefully to fewer — ultimately one — shard(s).
//
// Caching: partitions are memoized per graph via Graph::partition(shards)
// — a small per-graph store shared by all copies of the Graph (and thus by
// every GraphCache hit), so repeated sweep rows never re-partition. The
// process-wide hit/miss counters below pin that in tests.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"

namespace padlock {

class Partition {
 public:
  /// Per-shard geometry: nodes [node_begin, node_end), frontier words
  /// [word_begin, word_end), CSR positions [port_base, port_end). Empty
  /// shards (node_begin == node_end) are legal when the requested count
  /// exceeds what the word alignment can fill evenly.
  struct Shard {
    NodeId node_begin = 0;
    NodeId node_end = 0;
    std::size_t word_begin = 0;
    std::size_t word_end = 0;
    std::size_t port_base = 0;
    std::size_t port_end = 0;
  };

  Partition() = default;

  /// Splits g into `shards` contiguous word-aligned shards (clamped to
  /// [1, frontier words]; see file comment).
  [[nodiscard]] static Partition build(const Graph& g, int shards);

  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] const Shard& shard(int s) const {
    PADLOCK_REQUIRE(s >= 0 && s < num_shards());
    return shards_[static_cast<std::size_t>(s)];
  }

  /// Resident footprint, for stats surfacing.
  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(shards_.size() * sizeof(Shard));
  }

 private:
  std::vector<Shard> shards_;
};

/// The per-graph partition memo behind Graph::partition(): a small FIFO of
/// (shard count → Partition) shared by all copies of a Graph. Defined here
/// (not in graph.hpp) so the graph header only forward-declares it.
struct PartitionStore {
  std::mutex mu;
  std::vector<std::pair<int, std::shared_ptr<const Partition>>> entries;
};

/// Process-wide accounting of Graph::partition() calls, for the cache
/// tests: a hit is a partition served from a graph's store without
/// rebuilding. Monotone; reset via reset_partition_cache_counters().
struct PartitionCacheCounters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};
[[nodiscard]] PartitionCacheCounters partition_cache_counters();
void reset_partition_cache_counters();

}  // namespace padlock
