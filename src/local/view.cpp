#include "local/view.hpp"

#include <algorithm>

namespace padlock {

LocalView::LocalView(const Graph& g, NodeId center)
    : g_(g),
      center_(center),
      owned_(std::make_unique<BallScratch>()),
      scratch_(owned_.get()) {
  PADLOCK_REQUIRE(center < g.num_nodes());
}

LocalView::LocalView(const Graph& g, NodeId center, BallScratch& scratch)
    : g_(g), center_(center), scratch_(&scratch) {
  PADLOCK_REQUIRE(center < g.num_nodes());
}

void LocalView::extend(int r) {
  PADLOCK_REQUIRE(r >= 0);
  radius_ = std::max(radius_, r);
}

void LocalView::materialize() const {
  if (!ball_started_) {
    scratch_->bind(g_);
    scratch_->begin(center_);
    ball_epoch_ = scratch_->epoch_;
    ball_started_ = true;
  } else if (scratch_->epoch_ != ball_epoch_) {
    // Another view began a ball on the shared scratch since this view
    // materialized; its distances would be silently wrong. Diagnose the
    // lifetime-rule violation instead (see ball_scratch.hpp).
    contract_failure("locality",
                     "stale LocalView: another view reclaimed the shared "
                     "BallScratch",
                     __FILE__, __LINE__);
  }
  scratch_->grow_to(g_, radius_);
}

bool LocalView::in_ball(NodeId v) const {
  return v < g_.num_nodes() && scratch_->contains(v);
}

bool LocalView::ports_in_ball(NodeId v) const {
  return in_ball(v) && scratch_->dist_of(v) < radius_;
}

int LocalView::dist(NodeId v) const {
  materialize();
  PADLOCK_REQUIRE(in_ball(v));
  return scratch_->dist_of(v);
}

bool LocalView::knows_node(NodeId v) const {
  materialize();
  return in_ball(v);
}

bool LocalView::knows_ports(NodeId v) const {
  materialize();
  return ports_in_ball(v);
}

void LocalView::check_node(NodeId v) const {
  materialize();
  if (!in_ball(v))
    contract_failure("locality", "read of node outside gathered ball",
                     __FILE__, __LINE__);
}

void LocalView::check_ports(NodeId v) const {
  materialize();
  if (!ports_in_ball(v))
    contract_failure("locality", "read of ports outside gathered ball",
                     __FILE__, __LINE__);
}

void LocalView::check_edge(EdgeId e) const {
  materialize();
  // An edge is known iff one endpoint lies strictly inside the ball.
  const auto [u, v] = g_.endpoints(e);
  if (!ports_in_ball(u) && !ports_in_ball(v))
    contract_failure("locality", "read of edge outside gathered ball",
                     __FILE__, __LINE__);
}

}  // namespace padlock
