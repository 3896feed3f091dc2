// Unique identifier assignments.
//
// In the LOCAL model nodes carry unique ids from {1, …, poly(n)} (§1 of the
// paper). Different assignment strategies matter: deterministic algorithms
// must work for *every* assignment, so tests exercise several.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/graph.hpp"
#include "graph/labels.hpp"

namespace padlock {

using IdMap = NodeMap<std::uint64_t>;

/// ids 1..n in node order.
IdMap sequential_ids(const Graph& g);

/// A random permutation of 1..n.
IdMap shuffled_ids(const Graph& g, std::uint64_t seed);

/// Size of the sparse id space {1..n^3}: exactly n^3 whenever it fits in
/// 64 bits, saturated to UINT64_MAX beyond (n > 2642245).
[[nodiscard]] std::uint64_t sparse_id_space(std::uint64_t n);

/// n distinct ids sampled from {1..sparse_id_space(n)} (sparse id space,
/// the general case).
IdMap sparse_ids(const Graph& g, std::uint64_t seed);

/// ids ordered adversarially along a BFS from node 0 (descending with
/// distance), which maximizes the pain for greedy symmetry breaking.
IdMap bfs_adversarial_ids(const Graph& g);

/// Nodes per chunk of ids_valid's passes. An input of at most one chunk
/// runs inline on the caller (no pool dispatch), which covers sweep rows
/// and serve requests; larger inputs spread their chunks over the pool.
inline constexpr std::size_t kIdCheckChunk = std::size_t{1} << 15;

/// True iff there is one id per node, every id is >= 1, and all ids are
/// distinct. Two thread-pooled passes: the first finds the largest id and
/// any zero. When max_id <= 64·n (sequential, shuffled and adversarial
/// ids) the second marks every id in a bitmap of max_id + 1 bits with an
/// atomic fetch_or, and a bit already set is a duplicate: O(n) in total.
/// Otherwise (sparse ids) it sorts a copy and looks for equal neighbors,
/// O(n log n) on one thread. Either way the scratch is at most 8n bytes
/// plus one word.
bool ids_valid(const Graph& g, const IdMap& ids);

}  // namespace padlock
