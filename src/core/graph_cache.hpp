// Sweep-wide graph cache: each distinct (family, nodes, degree, seed)
// instance of the batched-execution menu is built once and shared as an
// immutable `shared_ptr<const Graph>` across rows, repeats, threads — and
// across the successive run_batch calls of one bench process (bench_micro's
// registry sweep and its linear-baseline sweep share menus, the fig benches
// replay their menus across plans).
//
// Keys are canonical (build::canonical_key): legacy aliases and ignored
// parameters collapse, so `cubic` and `multigraph --degree 3` share one
// slot. Graphs are immutable after construction, which is what makes the
// sharing sound: a cached instance handed to ten concurrent rows is
// read-only by construction.
//
// The cache is process-wide, thread-safe, and bounded (FIFO eviction at
// kCapacity = 32 entries) so size-ramp sweeps cannot pin unbounded memory.
// Every run_batch menu resolves through it; builders are deterministic, so
// a cold run (all misses) and a warm run produce bit-identical rows.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "graph/builders.hpp"
#include "graph/graph.hpp"

namespace padlock {

struct GraphCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class GraphCache {
 public:
  /// The process-wide cache used by run_batch and the benches.
  static GraphCache& instance();

  /// An empty, independent cache (tests).
  GraphCache() = default;

  /// Returns the cached instance for the canonicalized parameters, building
  /// (and inserting) on miss. Thread-safe; the build itself runs outside
  /// the lock, so distinct keys build concurrently. Build failures
  /// propagate and are never cached. `hit`, when non-null, reports whether
  /// the instance came from the cache.
  std::shared_ptr<const Graph> get_or_build(const std::string& family,
                                            std::size_t nodes, int degree,
                                            std::uint64_t seed,
                                            bool* hit = nullptr);

  void clear();
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] GraphCacheStats stats() const;

  /// FIFO eviction threshold: inserting entry kCapacity + 1 evicts the
  /// oldest one (outstanding shared_ptrs to it stay valid).
  static constexpr std::size_t kCapacity = 32;

 private:
  mutable std::mutex mu_;
  std::map<build::FamilyKey, std::shared_ptr<const Graph>> entries_;
  std::deque<build::FamilyKey> order_;  // insertion order, for FIFO eviction
  GraphCacheStats stats_;
};

}  // namespace padlock
