// Workload graph generators.
//
// These produce the instance families used throughout the paper's
// constructions and our benches: cycles and paths (Θ(log* n) problems),
// random and high-girth Δ-regular graphs (sinkless orientation), complete
// binary trees (gadget scaffolding), and toroidal grids.
//
// Every builder assembles through GraphBuilder, whose port-order contract
// (graph/graph.hpp) fixes the instance down to port numbering: edges are
// numbered in the order the builder adds them, and each node's ports follow
// that order, with u on side 0 and v on side 1 of edge {u,v}. The
// golden maps under tests/data depend on this, and
// tests/data/builder_reference_map.json pins it per family.
//
// Costs, for n nodes of degree d:
//   path, cycle, tree, torus   O(n)
//   random_regular             O(n·d)
//   random_regular_simple      O(n·d) expected: one linear scan finds the
//                              loops and parallel edges, and a flat pair
//                              table checks each repairing switch in O(1)
//   random_bounded_degree,
//   random_bounded_degree_simple
//                              O(n·d): a bounded number of sampling attempts
//   high_girth_regular         O(n·B) for the initial short-cycle scan, on
//                              the pool, where B is the size of a ball of
//                              radius girth/2; then O(B²) per switch
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace padlock::build {

/// Simple path with n >= 1 nodes, edges i -- i+1.
Graph path(std::size_t n);

/// Cycle with n >= 1 nodes (n == 1 gives a single self-loop, n == 2 a
/// parallel pair — both legal in our multigraph model).
Graph cycle(std::size_t n);

/// Complete binary tree with `height` levels (height >= 1); level 0 is the
/// root, level h-1 the leaves; 2^height - 1 nodes.
Graph complete_binary_tree(int height);

/// Toroidal rows x cols grid (4-regular); rows, cols >= 1.
Graph torus(std::size_t rows, std::size_t cols);

/// Random d-regular multigraph on n nodes via the configuration model
/// (n*d must be even). May contain self-loops and parallel edges, which the
/// model of the paper explicitly permits.
Graph random_regular(std::size_t n, int d, std::uint64_t seed);

/// Random d-regular *simple* graph: configuration model with rejection of
/// loops/parallels via edge switches. d >= 1, n*d even, n > d.
Graph random_regular_simple(std::size_t n, int d, std::uint64_t seed);

/// d-regular graph with girth >= `girth`, built by local edge switches that
/// destroy short cycles. Used as the hard-instance family for sinkless
/// orientation (the paper's lower-bound instances are high-girth graphs).
/// Requires n large enough for the Moore bound; asserts otherwise.
Graph high_girth_regular(std::size_t n, int d, int girth, std::uint64_t seed);

/// Erdős–Rényi-style bounded-degree graph: starts from a random matching
/// layering until max degree <= max_deg. Handy for fuzz tests.
Graph random_bounded_degree(std::size_t n, int max_deg, double density,
                            std::uint64_t seed);

/// Like random_bounded_degree but *simple*: self-loops and parallel edges
/// are rejected during sampling. Needed by algorithms that require proper
/// colorings to exist (Linial, MIS, edge coloring).
Graph random_bounded_degree_simple(std::size_t n, int max_deg, double density,
                                   std::uint64_t seed);

// ---- named instance families (the sweep menu) ------------------------------
//
// Batched sweeps (core/runner.hpp run_batch, padlock_cli sweep, the benches)
// pick instances by *family name* instead of hard-wiring one builder per
// call site. A family maps (n, degree, seed) to a concrete graph, fixing up
// the builder preconditions (degree-sum parity, n > d) by bumping n — so
// the produced instance may have slightly more nodes than requested; read
// the size off the returned graph.

/// All names `family` accepts, sorted:
///   bounded      random simple graph with max degree `degree`
///   cycle        n-cycle
///   high-girth   `degree`-regular, girth >= max(6, 2·log2(n)/3) — the
///                size-scaled sinkless-orientation hard instances
///   multigraph   `degree`-regular configuration model (loops/parallels ok)
///   path         n-path
///   regular      `degree`-regular simple graph
///   torus        toroidal grid, ~n nodes, 4-regular
///   tree         complete binary tree with >= n nodes (2^h - 1)
/// plus the legacy CLI aliases cubic (= multigraph, d=3) and cubic-simple
/// (= regular, d=3).
///
/// Additionally any `file:<path>` name is a *file-backed* family: the graph
/// is loaded from `<path>` — a binary `.pg` store (mmap, zero-copy) or a
/// SNAP/text edge list (parsed + normalized) — through store::
/// load_graph_file. File-backed families ignore n/degree/seed (the file is
/// the instance); family_names() lists only the synthetic families since
/// file: is parameterized by path.
[[nodiscard]] std::vector<std::string> family_names();

/// True iff `name` selects the file-backed family ("file:<path>").
[[nodiscard]] bool is_file_family(const std::string& name);

/// Builds one instance of the named family. Throws std::invalid_argument on
/// an unknown name.
Graph family(const std::string& name, std::size_t n, int degree,
             std::uint64_t seed);

/// Canonical identity of a family instance — the key of the sweep-wide
/// graph cache (core/graph_cache.hpp). Two parameter tuples that provably
/// build the same graph map to the same key:
///   * legacy aliases collapse (cubic -> multigraph d=3, cubic-simple ->
///     regular d=3);
///   * parameters a family ignores are zeroed (path/cycle/tree/torus take
///     neither degree nor seed);
///   * file-backed families ("file:<path>") zero n/degree and carry the
///     file's *content fingerprint* (the .pg header checksum, or an FNV
///     over a text edge list's bytes) in the seed field — so two different
///     files, or the same path regenerated with different content, can
///     never alias one cached Graph. An unreadable file fingerprints to 0
///     (the key must not throw); the build fails later, attributed to its
///     row.
/// Unknown family names pass through untouched (they fail at build time,
/// attributed to their row).
struct FamilyKey {
  std::string family;
  std::size_t nodes = 0;
  int degree = 0;
  std::uint64_t seed = 0;

  friend auto operator<=>(const FamilyKey&, const FamilyKey&) = default;
};

[[nodiscard]] FamilyKey canonical_key(const std::string& name, std::size_t n,
                                      int degree, std::uint64_t seed);

}  // namespace padlock::build
