// Port-numbered bounded-degree multigraph — the network substrate of the
// LOCAL model as used in the paper (§2):
//
//  * nodes have ports numbered 1..deg; every incident edge is attached to a
//    specific port, and a node receiving a message knows the arrival port;
//  * graphs may be disconnected and may contain self-loops and parallel
//    edges ("for technical reasons we deviate from the usual assumptions");
//  * a self-loop occupies two ports of its node and contributes 2 to the
//    degree, matching the standard port-numbering convention.
//
// Graphs are immutable after construction (build with GraphBuilder); all
// algorithms return label vectors instead of mutating the graph.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace padlock {

/// Immutable storage slab of the graph's CSR arrays: either *owning* (a
/// vector produced by GraphBuilder) or a *view* over externally owned bytes
/// (the store's mmap-backed `.pg` loader), with a keep-alive handle that
/// pins the backing mapping for the slab's lifetime. Both flavors expose
/// the same contiguous `data()/size()` surface, so PortRange and every
/// accessor below work identically on built and file-backed graphs —
/// zero-copy loading changes where the bytes live, never how they read.
template <typename T>
class Slab {
 public:
  Slab() = default;
  /*implicit*/ Slab(std::vector<T> own)
      : own_(std::move(own)), data_(own_.data()), size_(own_.size()) {}
  Slab(const T* data, std::size_t size, std::shared_ptr<const void> keep_alive)
      : keep_(std::move(keep_alive)), data_(data), size_(size) {}

  // Owning slabs re-anchor data_ at the destination vector's buffer (vector
  // copy reallocates; vector move preserves the heap buffer).
  Slab(const Slab& o)
      : own_(o.own_), keep_(o.keep_), data_(o.data_), size_(o.size_) {
    if (!own_.empty()) data_ = own_.data();
  }
  Slab(Slab&& o) noexcept
      : own_(std::move(o.own_)),
        keep_(std::move(o.keep_)),
        data_(o.data_),
        size_(o.size_) {
    o.data_ = nullptr;
    o.size_ = 0;
  }
  Slab& operator=(const Slab& o) {
    if (this != &o) {
      Slab tmp(o);
      *this = std::move(tmp);
    }
    return *this;
  }
  Slab& operator=(Slab&& o) noexcept {
    own_ = std::move(o.own_);
    keep_ = std::move(o.keep_);
    data_ = o.data_;
    size_ = o.size_;
    o.data_ = nullptr;
    o.size_ = 0;
    return *this;
  }

  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  std::vector<T> own_;
  std::shared_ptr<const void> keep_;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

/// One side of an edge. Edge e = {u,v} has side 0 at u and side 1 at v
/// (u and v being the endpoints in insertion order; u == v for self-loops).
struct HalfEdge {
  EdgeId edge = kNoEdge;
  int side = 0;  // 0 or 1

  friend bool operator==(const HalfEdge&, const HalfEdge&) = default;
};

/// Dense index of a half-edge: 2*edge + side. Used to address half-edge
/// label stores (the set B = {(v,e) : v ∈ e} of the paper).
[[nodiscard]] constexpr std::size_t half_edge_index(HalfEdge h) {
  return 2 * static_cast<std::size_t>(h.edge) + static_cast<std::size_t>(h.side);
}

class GraphBuilder;

/// Zero-allocation view of one node's ports: a contiguous slice of the
/// graph's CSR port slab, in port order. Valid as long as the Graph it was
/// taken from is alive and unmoved (graphs are immutable, so there is no
/// invalidation hazard beyond lifetime).
class PortRange {
 public:
  using value_type = HalfEdge;
  using iterator = const HalfEdge*;
  using const_iterator = const HalfEdge*;

  PortRange() = default;
  PortRange(const HalfEdge* first, const HalfEdge* last)
      : first_(first), last_(last) {}

  [[nodiscard]] const_iterator begin() const { return first_; }
  [[nodiscard]] const_iterator end() const { return last_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(last_ - first_);
  }
  [[nodiscard]] bool empty() const { return first_ == last_; }
  [[nodiscard]] const HalfEdge& operator[](std::size_t port) const {
    PADLOCK_REQUIRE(port < size());
    return first_[port];
  }

 private:
  const HalfEdge* first_ = nullptr;
  const HalfEdge* last_ = nullptr;
};

class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::size_t num_nodes() const { return first_port_.empty() ? 0 : first_port_.size() - 1; }
  [[nodiscard]] std::size_t num_edges() const { return endpoints_.size(); }

  /// Number of ports of v (= degree; self-loops count twice).
  [[nodiscard]] int degree(NodeId v) const {
    PADLOCK_REQUIRE(v < num_nodes());
    return static_cast<int>(first_port_[v + 1] - first_port_[v]);
  }

  /// Maximum degree over all nodes (0 for the empty graph).
  [[nodiscard]] int max_degree() const { return max_degree_; }

  /// The half-edge attached to port `port` (0-based) of node v.
  [[nodiscard]] HalfEdge incidence(NodeId v, int port) const {
    PADLOCK_REQUIRE(v < num_nodes());
    PADLOCK_REQUIRE(port >= 0 && port < degree(v));
    return ports_[first_port_[v] + static_cast<std::size_t>(port)];
  }

  /// Endpoint of edge e on side `side`.
  [[nodiscard]] NodeId endpoint(EdgeId e, int side) const {
    PADLOCK_REQUIRE(e < num_edges());
    PADLOCK_REQUIRE(side == 0 || side == 1);
    return side == 0 ? endpoints_[e].first : endpoints_[e].second;
  }

  [[nodiscard]] std::pair<NodeId, NodeId> endpoints(EdgeId e) const {
    PADLOCK_REQUIRE(e < num_edges());
    return endpoints_[e];
  }

  [[nodiscard]] bool is_self_loop(EdgeId e) const {
    const auto [u, v] = endpoints(e);
    return u == v;
  }

  /// True iff no edge is a self-loop. Computed once at assembly and copied
  /// with the graph, so the precondition checks of the registry and the
  /// algorithms cost O(1) instead of an O(m) scan each.
  [[nodiscard]] bool loop_free() const { return loop_free_; }

  /// The node at the other end of half-edge h.
  [[nodiscard]] NodeId node_across(HalfEdge h) const {
    return endpoint(h.edge, 1 - h.side);
  }

  /// The node owning half-edge h.
  [[nodiscard]] NodeId node_at(HalfEdge h) const {
    return endpoint(h.edge, h.side);
  }

  /// The neighbor reached from v through port `port`. For a self-loop this
  /// is v itself.
  [[nodiscard]] NodeId neighbor(NodeId v, int port) const {
    return node_across(incidence(v, port));
  }

  /// The port at which half-edge h is attached to its endpoint.
  [[nodiscard]] int port_of(HalfEdge h) const {
    PADLOCK_REQUIRE(h.edge < num_edges());
    return h.side == 0 ? side_port_[h.edge].first : side_port_[h.edge].second;
  }

  /// The opposite half of h's edge.
  [[nodiscard]] static HalfEdge opposite(HalfEdge h) {
    return HalfEdge{h.edge, 1 - h.side};
  }

  /// All half-edges incident to v, in port order — a zero-allocation view
  /// into the CSR port slab (hot-path safe; the old version materialized a
  /// std::vector per call).
  [[nodiscard]] PortRange incident(NodeId v) const {
    PADLOCK_REQUIRE(v < num_nodes());
    const HalfEdge* base = ports_.data();
    return PortRange(base + first_port_[v], base + first_port_[v + 1]);
  }

  /// CSR position of v's first port: v's ports occupy positions
  /// [port_offset(v), port_offset(v) + degree(v)) of the port slab — the
  /// contiguous per-node range the message engine's slot layout is built
  /// on (local/message_engine.hpp).
  [[nodiscard]] std::size_t port_offset(NodeId v) const {
    PADLOCK_REQUIRE(v < num_nodes());
    return first_port_[v];
  }

  /// Unchecked (port_offset, degree) pair — the engine's per-node hot
  /// path, where v comes from a frontier bitset that only ever holds valid
  /// ids. Every other caller should use the checked accessors.
  [[nodiscard]] std::pair<std::size_t, std::size_t> port_span(NodeId v) const {
    const std::size_t o = first_port_[v];
    return {o, first_port_[v + 1] - o};
  }

  /// CSR position of the *other* side of each port's edge: peer_port()[i]
  /// is where the neighbor reached through the port at CSR position i
  /// keeps its own half of that edge. Precomputed at assembly (build /
  /// adopt) so the engine's read path is one contiguous 4-byte load per
  /// port instead of an endpoint + side-port lookup chain.
  [[nodiscard]] const std::uint32_t* peer_port() const {
    return peer_port_.data();
  }

  /// Trusted assembly from pre-built CSR slabs — the entry point of the
  /// store's mmap loader (store/pg.hpp), which hands in views over a mapped
  /// `.pg` payload. Cross-referential invariants (first_port monotone and
  /// ending at 2·edges, port/endpoint/side_port agreement) are the caller's
  /// responsibility; the loader validates the payload before adopting.
  [[nodiscard]] static Graph adopt(Slab<std::size_t> first_port,
                                   Slab<HalfEdge> ports,
                                   Slab<std::pair<NodeId, NodeId>> endpoints,
                                   Slab<std::pair<int, int>> side_port,
                                   int max_degree);

 private:
  friend class GraphBuilder;

  /// Fills what is derived from the assembled CSR slabs: peer_port_ and
  /// loop_free_.
  void finalize();

  // CSR layout of ports: ports of node v live at
  // ports_[first_port_[v] .. first_port_[v+1]).
  Slab<std::size_t> first_port_;
  Slab<HalfEdge> ports_;
  Slab<std::pair<NodeId, NodeId>> endpoints_;
  // Per edge: (port at side-0 endpoint, port at side-1 endpoint).
  Slab<std::pair<int, int>> side_port_;
  std::vector<std::uint32_t> peer_port_;
  int max_degree_ = 0;
  bool loop_free_ = true;
};

/// Incremental builder; the only place where graph topology is mutable.
///
/// Port-order contract: each node's ports are numbered in edge-insertion
/// order, an edge {u,v} taking side 0 at u and side 1 at v; a self-loop
/// takes two consecutive ports of its node, side 0 then side 1. The
/// builder records only the edge list; build() assembles the CSR slabs in
/// O(n + m) with one counting sort by endpoint.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  /// Reserves room for `reserve_edges` edges; the edge list still grows on
  /// demand. Callers usually pass the node count, which is about right for
  /// paths, cycles and trees.
  explicit GraphBuilder(std::size_t reserve_edges);

  /// Adds an isolated node and returns its id (ids are dense, 0-based).
  NodeId add_node();

  /// Adds `count` nodes; returns the id of the first.
  NodeId add_nodes(std::size_t count);

  /// Adds an edge {u,v}; u gets side 0, v side 1 (see the port-order
  /// contract above).
  EdgeId add_edge(NodeId u, NodeId v);

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const { return endpoints_.size(); }

  /// Finalizes the graph. The builder may not be reused afterwards.
  [[nodiscard]] Graph build() &&;

 private:
  std::size_t num_nodes_ = 0;
  std::vector<std::pair<NodeId, NodeId>> endpoints_;
};

}  // namespace padlock
