// The compact binary on-disk graph store (`.pg`) — convert once, load in
// milliseconds, forever.
//
// Layout (all integers little-endian, fixed width; header 80 bytes):
//
//   [ 0..8)   magic "PADLKPG\n"
//   [ 8..12)  version (currently 1)
//   [12..16)  endianness marker 0x01020304, written natively — a loader on
//             a byte-swapped machine sees 0x04030201 and rejects
//   [16..24)  nodes (n)        [24..32) edges (m)
//   [32..36)  max degree       [36..40) reserved (0)
//   [40..48)  checksum: word-folded FNV-1a (codec.hpp fnv1a_words) over
//             every payload byte after the header
//   [48..64)  EDGES section offset/size
//   [64..80)  CSR section offset/size
//
//   EDGES section: the edge list as a delta/varint stream — per edge the
//   zigzag delta of each endpoint against the previous edge's (codec.hpp).
//   Canonical (sorted) edge lists cost ~2 bytes/edge. This is the compact,
//   order-exact adjacency payload; tests decode it and require it to match
//   the CSR view bit for bit.
//
//   CSR section (8-byte aligned): the Graph's four slabs verbatim —
//   first_port[n+1] (u64), ports[2m] (HalfEdge), endpoints[m] (u32 pair),
//   side_port[m] (int pair). The mmap loader validates the header, the
//   checksum and the slabs' structure in one O(n + m) pass, then *adopts*
//   these bytes as Graph slabs without copying or decoding: load cost is
//   a checksum stream plus that pass over the mapping, not a parse.
//
// Every malformed-input path (truncated file, bad magic, version skew,
// node/edge counts beyond the NodeId/EdgeId range, checksum mismatch,
// inconsistent sections or slabs, corrupt varints) throws
// ContractViolation, so a bad file poisons exactly its sweep row.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace padlock::store {

inline constexpr char kPgMagic[8] = {'P', 'A', 'D', 'L', 'K', 'P', 'G', '\n'};
inline constexpr std::uint32_t kPgVersion = 1;

/// Decoded header of a `.pg` file (the cheap O(1) metadata read behind
/// `padlock_cli graph info` and the cache-key fingerprint).
struct PgInfo {
  std::uint32_t version = 0;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint32_t max_degree = 0;
  std::uint64_t checksum = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t edges_bytes = 0;  // compressed adjacency section
  std::uint64_t csr_bytes = 0;    // raw slab section
};

/// Writes `g` to `path` in `.pg` format (EDGES + CSR sections + checksum).
/// Accepts any Graph — builder order is preserved exactly, so a later
/// mmap load reproduces `g` bit for bit. An existing file is replaced in one
/// rename, so graphs already loaded from `path` stay readable.
void write_pg(const std::string& path, const Graph& g);

/// True iff `path` exists and starts with the `.pg` magic (content sniff,
/// not extension). Unreadable/short files are simply "not a pg file".
[[nodiscard]] bool sniff_pg(const std::string& path);

/// Reads and validates the 80-byte header only.
[[nodiscard]] PgInfo read_pg_info(const std::string& path);

/// mmap-backed zero-copy load: validates the header, the payload checksum,
/// and the CSR structure (offsets, endpoint range, and that the port and
/// side-port slabs point at each other), then returns a Graph whose slabs
/// view the mapping directly. The returned Graph (and any copy of it)
/// keeps the mapping alive.
[[nodiscard]] Graph load_pg(const std::string& path);

/// Decodes the EDGES varint section into an explicit edge list (test /
/// audit path; the zero-copy loader never needs it).
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> decode_pg_edges(
    const std::string& path);

/// The `file:` family loader: sniffs the content — `.pg` files mmap-load,
/// anything else parses as a SNAP/text edge list (normalized: duplicate
/// edges collapsed, self-loops dropped; see edgelist.hpp).
[[nodiscard]] Graph load_graph_file(const std::string& path);

/// Content identity of a graph file for the cache key: the header checksum
/// of a `.pg` file (O(1)), the FNV-1a of the raw bytes of a text edge list.
/// Throws ContractViolation on unreadable paths.
[[nodiscard]] std::uint64_t file_fingerprint(const std::string& path);

}  // namespace padlock::store
