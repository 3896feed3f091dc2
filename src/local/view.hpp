// Radius-audited local views — the formal heart of round accounting.
//
// A LOCAL algorithm with complexity T is equivalent to: every node gathers
// its radius-T neighborhood and maps it to an output (§2 of the paper).
// LocalView models exactly that. An algorithm holds a view centered at its
// node and may only read graph elements whose information would have reached
// the center within `radius()` synchronous rounds:
//
//   * node data (id, degree, input label) of v — needs radius >= dist(v);
//   * ports/edges of v (and hence v's neighbors) — needs radius >= dist(v)+1.
//
// Every view is strict: a read materializes the BFS ball into an
// epoch-stamped flat distance slab (BallScratch) over the graph's CSR port
// slab (a no-op after the first read at the current radius) and *throws
// ContractViolation* on any read outside it. A ball costs flat-array scans,
// not hash-map allocation churn, so the same check runs in tests and at
// bench scale; it is the oracle that proves algorithms are genuinely local.
//
// Views either borrow a caller-owned BallScratch (the engine path: one
// thread_local scratch per pool worker, reused across every node of a
// chunk, zero allocation after warmup) or own a private one (the
// standalone/test path). See ball_scratch.hpp for the lifetime rules.
//
// The per-node round cost of a gather algorithm is the final `radius()` of
// its view; an engine run reports max over nodes, which is the LOCAL time.
#pragma once

#include <memory>

#include "graph/graph.hpp"
#include "local/ball_scratch.hpp"

namespace padlock {

class LocalView {
 public:
  /// Standalone view with a private scratch (allocates; tests, one-offs).
  LocalView(const Graph& g, NodeId center);
  /// Borrows `scratch` (the engine path; see ball_scratch.hpp lifetime
  /// rules — constructing the next borrowing view invalidates this one's
  /// ball).
  LocalView(const Graph& g, NodeId center, BallScratch& scratch);

  [[nodiscard]] NodeId center() const { return center_; }
  [[nodiscard]] int radius() const { return radius_; }

  /// Gathers further, to radius r (no-op if already >= r). This is the only
  /// operation that costs communication rounds.
  void extend(int r);

  /// Distance from the center to v if v is inside the gathered ball; throws
  /// when v is outside.
  [[nodiscard]] int dist(NodeId v) const;

  /// True iff the node's data (id/degree/input) is within the view.
  [[nodiscard]] bool knows_node(NodeId v) const;
  /// True iff all ports of v (and so its incident edges) are within view.
  [[nodiscard]] bool knows_ports(NodeId v) const;

  // ---- Checked structural accessors (mirror Graph) ----

  [[nodiscard]] int degree(NodeId v) const {
    check_node(v);
    return g_.degree(v);
  }
  [[nodiscard]] HalfEdge incidence(NodeId v, int port) const {
    check_ports(v);
    return g_.incidence(v, port);
  }
  [[nodiscard]] NodeId neighbor(NodeId v, int port) const {
    check_ports(v);
    return g_.neighbor(v, port);
  }
  [[nodiscard]] NodeId endpoint(EdgeId e, int side) const {
    check_edge(e);
    return g_.endpoint(e, side);
  }
  [[nodiscard]] int port_of(HalfEdge h) const {
    check_edge(h.edge);
    return g_.port_of(h);
  }
  [[nodiscard]] bool is_self_loop(EdgeId e) const {
    check_edge(e);
    return g_.is_self_loop(e);
  }

  /// Checked read of an arbitrary per-node table (ids, inputs, labels).
  template <typename Map>
  [[nodiscard]] decltype(auto) node_data(const Map& map, NodeId v) const {
    check_node(v);
    return map[v];
  }

  /// Checked read of a per-edge table.
  template <typename Map>
  [[nodiscard]] decltype(auto) edge_data(const Map& map, EdgeId e) const {
    check_edge(e);
    return map[e];
  }

  /// Checked read of a per-half-edge table.
  template <typename Map>
  [[nodiscard]] decltype(auto) half_data(const Map& map, HalfEdge h) const {
    check_edge(h.edge);
    return map[h];
  }

 private:
  void check_node(NodeId v) const;
  void check_ports(NodeId v) const;
  void check_edge(EdgeId e) const;
  /// Ensures the scratch holds this view's ball out to radius(). First call
  /// claims the scratch (epoch bump); later calls only grow the BFS.
  void materialize() const;
  [[nodiscard]] bool in_ball(NodeId v) const;
  [[nodiscard]] bool ports_in_ball(NodeId v) const;

  const Graph& g_;
  NodeId center_;
  int radius_ = 0;
  std::unique_ptr<BallScratch> owned_;  // standalone constructor only
  BallScratch* scratch_;                // never null
  mutable bool ball_started_ = false;
  // Epoch the scratch held when this view began its ball; a mismatch on a
  // later read means another view reclaimed the scratch (diagnosed as a
  // contract violation instead of returning another center's distances).
  mutable std::uint32_t ball_epoch_ = 0;
};

}  // namespace padlock
