#include "local/fingerprint.hpp"

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

namespace padlock {

namespace {

struct Decorated {
  const Graph* g;
  const IdMap* ids;
  const NeLabeling* input;
};

/// One refinement level across all graphs with a shared intern table:
/// sig_0(v) = own decorations; sig_r(v) = own decorations plus, per port,
/// the edge decorations, the arrival port, and the *interned* sig_{r-1} of
/// the far endpoint. Equality of sig_r is exactly equality of the
/// radius-r port-numbered decorated views (the unfolded universal cover),
/// but the computation is O(radius * Σm) instead of exponential.
std::vector<std::vector<std::string>> refine(
    const std::vector<Decorated>& gs, int radius) {
  std::vector<std::vector<std::string>> sig(gs.size());
  for (std::size_t k = 0; k < gs.size(); ++k) {
    const Graph& g = *gs[k].g;
    sig[k].resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      std::ostringstream os;
      os << "d" << g.degree(v) << ",i" << (*gs[k].ids)[v];
      if (gs[k].input != nullptr) os << ",n" << gs[k].input->node[v];
      sig[k][v] = os.str();
    }
  }
  for (int r = 1; r <= radius; ++r) {
    std::unordered_map<std::string, int> intern;
    auto intern_of = [&intern](const std::string& s) {
      const auto [it, _] =
          intern.emplace(s, static_cast<int>(intern.size()));
      return it->second;
    };
    std::vector<std::vector<std::string>> next(gs.size());
    for (std::size_t k = 0; k < gs.size(); ++k) {
      const Graph& g = *gs[k].g;
      const NeLabeling* input = gs[k].input;
      next[k].resize(g.num_nodes());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        std::ostringstream os;
        os << "d" << g.degree(v) << ",i" << (*gs[k].ids)[v];
        if (input != nullptr) os << ",n" << input->node[v];
        for (int p = 0; p < g.degree(v); ++p) {
          const HalfEdge h = g.incidence(v, p);
          os << "[p" << p;
          if (input != nullptr) {
            os << ",e" << input->edge[h.edge] << ",h" << input->half[h]
               << ",o" << input->half[Graph::opposite(h)];
          }
          os << ",a" << g.port_of(Graph::opposite(h)) << ",c"
             << intern_of(sig[k][g.node_across(h)]) << "]";
        }
        next[k][v] = os.str();
      }
    }
    sig = std::move(next);
  }
  return sig;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::uint64_t labeling_fingerprint(const NeLabeling& l) {
  std::uint64_t h = kFnvBasis;
  for (NodeId v = 0; v < l.node.size(); ++v)
    h = fnv1a(h, static_cast<std::uint64_t>(l.node[v]));
  for (EdgeId e = 0; e < l.edge.size(); ++e) {
    h = fnv1a(h, static_cast<std::uint64_t>(l.edge[e]));
    h = fnv1a(h, static_cast<std::uint64_t>(l.half[HalfEdge{e, 0}]));
    h = fnv1a(h, static_cast<std::uint64_t>(l.half[HalfEdge{e, 1}]));
  }
  return h;
}

std::uint64_t node_map_fingerprint(const NodeMap<int>& m) {
  std::uint64_t h = kFnvBasis;
  for (NodeId v = 0; v < m.size(); ++v)
    h = fnv1a(h, static_cast<std::uint64_t>(m[v]));
  return h;
}

std::uint64_t graph_fingerprint(const Graph& g) {
  std::uint64_t h = kFnvBasis;
  h = fnv1a(h, g.num_nodes());
  h = fnv1a(h, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    h = fnv1a(h, u);
    h = fnv1a(h, v);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const HalfEdge p : g.incident(v)) {
      h = fnv1a(h, p.edge);
      h = fnv1a(h, static_cast<std::uint64_t>(p.side));
    }
  }
  return h;
}

std::string view_fingerprint(const Graph& g, const IdMap& ids,
                             const NeLabeling* input, NodeId v, int radius) {
  const auto sig = refine({Decorated{&g, &ids, input}}, radius);
  return sig[0][v];
}

bool views_equal(const Graph& g1, const IdMap& ids1, const NeLabeling* in1,
                 NodeId v1, const Graph& g2, const IdMap& ids2,
                 const NeLabeling* in2, NodeId v2, int radius) {
  const auto sig = refine(
      {Decorated{&g1, &ids1, in1}, Decorated{&g2, &ids2, in2}}, radius);
  return sig[0][v1] == sig[1][v2];
}

}  // namespace padlock
