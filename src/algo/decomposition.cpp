#include "algo/decomposition.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "support/rng.hpp"

namespace padlock {

namespace {

int radius_cap(std::size_t n) {
  return 2 + std::bit_width(std::max<std::size_t>(n, 2) - 1);
}

}  // namespace

int cluster_radius(const Graph& g, NodeId center,
                   std::span<const NodeId> members) {
  const std::size_t n = g.num_nodes();
  PADLOCK_REQUIRE(center < n);
  for (const NodeId m : members) PADLOCK_REQUIRE(m < n);
  thread_local std::vector<int> dist;
  thread_local std::vector<char> wanted;
  thread_local std::vector<NodeId> ball;
  if (dist.size() < n) {
    dist.assign(n, -1);
    wanted.assign(n, 0);
  }
  std::size_t remaining = 0;
  for (const NodeId m : members) {
    if (wanted[m] == 0) ++remaining;
    wanted[m] = 1;
  }
  // BFS discovers nodes in nondecreasing distance, so the last member
  // reached sets the radius; stop there instead of covering the component.
  int radius = 0;
  ball.clear();
  auto reach = [&](NodeId u, int d) {
    dist[u] = d;
    ball.push_back(u);
    if (wanted[u] != 0) {
      wanted[u] = 0;
      --remaining;
      radius = d;
    }
  };
  reach(center, 0);
  for (std::size_t head = 0; head < ball.size() && remaining > 0; ++head) {
    const NodeId u = ball[head];
    for (int p = 0; p < g.degree(u); ++p) {
      const NodeId w = g.neighbor(u, p);
      if (dist[w] == -1) reach(w, dist[u] + 1);
    }
  }
  for (const NodeId u : ball) dist[u] = -1;
  for (const NodeId m : members) wanted[m] = 0;  // unreachable members
  return radius;
}

Decomposition network_decomposition(const Graph& g, const IdMap& ids,
                                    std::uint64_t seed) {
  PADLOCK_REQUIRE(ids_valid(g, ids));
  const auto n = g.num_nodes();
  const int cap = radius_cap(n);

  Decomposition out{NodeMap<int>(g, 0), NodeMap<NodeId>(g, kNoNode), 0, 0, 0};
  std::vector<bool> live(n, true);
  std::size_t live_count = n;
  // Claim-flood scratch: distances from the current claimant over its ball,
  // reset from the ball list after each claim.
  std::vector<int> dist(n, -1);
  std::vector<NodeId> ball;

  int phase = 0;
  while (live_count > 0) {
    ++phase;
    PADLOCK_REQUIRE(phase <= 64 * (cap + 2));  // w.h.p. ~log n phases

    // Draw radii.
    std::vector<int> r(n, 0);
    int max_r = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!live[v]) continue;
      Rng rng(per_node_seed(seed ^ (0xDECull * phase), ids[v]));
      int draw = 0;
      while (draw < cap && rng.chance(0.5)) ++draw;
      r[v] = draw;
      max_r = std::max(max_r, draw);
    }

    // Claim propagation: every live node v floods (id, r_v) over its
    // radius-r_v ball (live and retired nodes alike relay, but only live
    // nodes elect). best[u] = (id of claimant, remaining depth).
    std::vector<std::uint64_t> best_id(n, 0);
    std::vector<NodeId> best_center(n, kNoNode);
    std::vector<int> best_slack(n, -1);  // r_v - d(u,v) of the elected claim
    for (NodeId v = 0; v < n; ++v) {
      if (!live[v]) continue;
      // BFS to depth r[v]; the ball list doubles as the queue.
      ball.clear();
      dist[v] = 0;
      ball.push_back(v);
      for (std::size_t head = 0; head < ball.size(); ++head) {
        const NodeId u = ball[head];
        const int d = dist[u];
        if (ids[v] > best_id[u]) {
          best_id[u] = ids[v];
          best_center[u] = v;
          best_slack[u] = r[v] - d;
        }
        if (d == r[v]) continue;
        for (int p = 0; p < g.degree(u); ++p) {
          const NodeId w = g.neighbor(u, p);
          if (dist[w] != -1) continue;
          dist[w] = d + 1;
          ball.push_back(w);
        }
      }
      for (const NodeId u : ball) dist[u] = -1;
    }

    // Elect and retire: only strictly interior nodes join (d < r of the
    // elected claim); border nodes stay live, which is what guarantees that
    // same-phase clusters are never adjacent.
    for (NodeId u = 0; u < n; ++u) {
      if (!live[u] || best_center[u] == kNoNode) continue;
      if (best_slack[u] >= 1) {
        out.color[u] = phase;
        out.cluster[u] = best_center[u];
        live[u] = false;
        --live_count;
      }
    }
    out.rounds += 2 * std::max(max_r, 1) + 1;
  }
  out.num_colors = phase;

  // Cluster radius bookkeeping (around centers). A center may itself have
  // retired into a different cluster in a later phase, so group members by
  // their referenced center rather than by self-membership.
  for (NodeId v = 0; v < n; ++v) PADLOCK_ASSERT(out.cluster[v] != kNoNode);
  std::vector<NodeId> by_center(n);
  std::iota(by_center.begin(), by_center.end(), NodeId{0});
  std::sort(by_center.begin(), by_center.end(), [&](NodeId a, NodeId b) {
    return out.cluster[a] < out.cluster[b];
  });
  const std::span<const NodeId> all(by_center);
  for (std::size_t i = 0; i < n;) {
    const NodeId c = out.cluster[by_center[i]];
    std::size_t j = i;
    while (j < n && out.cluster[by_center[j]] == c) ++j;
    out.max_cluster_radius = std::max(
        out.max_cluster_radius, cluster_radius(g, c, all.subspan(i, j - i)));
    i = j;
  }
  return out;
}

bool decomposition_valid(const Graph& g, const Decomposition& d,
                         int max_radius) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (d.color[v] < 1 || d.cluster[v] == kNoNode) return false;
  }
  // Same color + adjacent => same cluster.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId u = g.endpoint(e, 0);
    const NodeId v = g.endpoint(e, 1);
    if (u != v && d.color[u] == d.color[v] && d.cluster[u] != d.cluster[v])
      return false;
  }
  return d.max_cluster_radius <= max_radius;
}

}  // namespace padlock
