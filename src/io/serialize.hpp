// Plain-text serialization of graphs, ne-labelings, and padded instances.
//
// Formats are line-oriented, versioned, and self-describing enough to
// round-trip exactly; they exist so that instances generated by the
// workload builders can be archived, diffed, and re-run (and so that the
// CLI can pipe instances between invocations).
//
//   padlock-graph v1
//   nodes <n>
//   edges <m>
//   e <u> <v>          (m lines, insertion order == edge ids == port order)
//
//   padlock-labeling v1
//   nodes <n> edges <m>
//   n <v> <label>      (only non-ε entries)
//   e <e> <label>
//   h <e> <side> <label>
//   end
//
//   padlock-padded v1
//   <graph block>
//   delta <Δ>
//   gnode <v> <index> <port> <center(0/1)> <vcolor>   (non-default only)
//   ghalf <e> <side> <label>
//   pedge <e>          (PortEdge marks)
//   <labeling block>   (the carried Π-input)
//   end
#pragma once

#include <cstddef>
#include <iosfwd>

#include "core/padded_graph.hpp"
#include "lcl/ne_lcl.hpp"

namespace padlock::io {

/// Largest `nodes` header read_graph accepts (2^26, the CLI's cap on
/// --nodes and --base-nodes). The header is untrusted: a node count costs
/// memory even with no edge lines behind it, so a larger one is refused
/// before anything is allocated.
inline constexpr std::size_t kMaxGraphNodes = std::size_t{1} << 26;

void write_graph(std::ostream& os, const Graph& g);
/// Throws std::runtime_error on malformed input, including a node count
/// above kMaxGraphNodes.
Graph read_graph(std::istream& is);

void write_labeling(std::ostream& os, const NeLabeling& l);
/// `g` supplies the shape; labels must be within bounds.
NeLabeling read_labeling(std::istream& is, const Graph& g);

void write_padded_instance(std::ostream& os, const PaddedInstance& inst);
PaddedInstance read_padded_instance(std::istream& is);

}  // namespace padlock::io
