#include "graph/metrics.hpp"

#include <algorithm>
#include <queue>
#include <stack>

namespace padlock {

NodeMap<int> bfs_distances(const Graph& g, NodeId source) {
  return bfs_distances(g, std::vector<NodeId>{source});
}

NodeMap<int> bfs_distances(const Graph& g, const std::vector<NodeId>& sources) {
  NodeMap<int> dist(g, kUnreachable);
  std::queue<NodeId> q;
  for (NodeId s : sources) {
    PADLOCK_REQUIRE(s < g.num_nodes());
    if (dist[s] == kUnreachable) {
      dist[s] = 0;
      q.push(s);
    }
  }
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (int p = 0; p < g.degree(u); ++p) {
      const NodeId w = g.neighbor(u, p);
      if (dist[w] == kUnreachable) {
        dist[w] = dist[u] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

Components connected_components(const Graph& g) {
  Components out{NodeMap<int>(g, -1), 0};
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (out.id[s] != -1) continue;
    const int c = out.count++;
    std::queue<NodeId> q;
    out.id[s] = c;
    q.push(s);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (int p = 0; p < g.degree(u); ++p) {
        const NodeId w = g.neighbor(u, p);
        if (out.id[w] == -1) {
          out.id[w] = c;
          q.push(w);
        }
      }
    }
  }
  return out;
}

int eccentricity(const Graph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  int ecc = 0;
  for (int d : dist) ecc = std::max(ecc, d);
  return ecc;
}

int diameter(const Graph& g) {
  if (g.num_nodes() == 0) return kUnreachable;
  int best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    best = std::max(best, eccentricity(g, v));
  return best;
}

std::optional<int> girth(const Graph& g) {
  std::optional<int> best;
  // Self-loops and parallel edges give the immediate answers 1 and 2.
  if (!g.loop_free()) return 1;

  std::vector<int> dist(g.num_nodes(), -1);
  std::vector<EdgeId> via(g.num_nodes(), kNoEdge);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(via.begin(), via.end(), kNoEdge);
    dist[s] = 0;
    std::queue<NodeId> q;
    q.push(s);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      // Balls beyond half the current best girth cannot improve it.
      if (best && dist[u] >= *best / 2) continue;
      for (int p = 0; p < g.degree(u); ++p) {
        const HalfEdge h = g.incidence(u, p);
        const NodeId w = g.node_across(h);
        if (dist[w] == -1) {
          dist[w] = dist[u] + 1;
          via[w] = h.edge;
          q.push(w);
        } else if (via[w] != h.edge && via[u] != h.edge) {
          const int len = dist[u] + dist[w] + 1;
          if (!best || len < *best) best = len;
        }
      }
    }
  }
  return best;
}

std::optional<int> shortest_cycle_through(const Graph& g, NodeId v) {
  PADLOCK_REQUIRE(v < g.num_nodes());
  // BFS from v; the first non-tree edge seen bounds the shortest cycle in
  // v's ball (standard unweighted shortest-cycle-from-root bound).
  std::vector<int> dist(g.num_nodes(), -1);
  std::vector<EdgeId> via(g.num_nodes(), kNoEdge);
  dist[v] = 0;
  std::queue<NodeId> q;
  q.push(v);
  std::optional<int> best;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    if (best && dist[u] >= *best) continue;
    for (int p = 0; p < g.degree(u); ++p) {
      const HalfEdge h = g.incidence(u, p);
      const NodeId w = g.node_across(h);
      if (w == u) {
        const int len = 2 * dist[u] + 1;
        if (!best || len < *best) best = len;
        continue;
      }
      if (dist[w] == -1) {
        dist[w] = dist[u] + 1;
        via[w] = h.edge;
        q.push(w);
      } else if (via[w] != h.edge && via[u] != h.edge) {
        const int len = dist[u] + dist[w] + 1;
        if (!best || len < *best) best = len;
      }
    }
  }
  return best;
}

namespace {

// Bridge detection on a multigraph via iterative DFS with low-links; parent
// edges are skipped by edge id so parallel edges are correctly non-bridges.
EdgeMap<bool> find_bridges(const Graph& g) {
  EdgeMap<bool> bridge(g, false);
  const auto n = g.num_nodes();
  std::vector<int> entry(n, -1), low(n, 0);
  int timer = 0;

  struct Frame {
    NodeId node;
    EdgeId parent_edge;
    int next_port;
  };

  for (NodeId root = 0; root < n; ++root) {
    if (entry[root] != -1) continue;
    std::stack<Frame> st;
    entry[root] = low[root] = timer++;
    st.push({root, kNoEdge, 0});
    while (!st.empty()) {
      Frame& f = st.top();
      if (f.next_port < g.degree(f.node)) {
        const HalfEdge h = g.incidence(f.node, f.next_port++);
        const NodeId w = g.node_across(h);
        if (h.edge == f.parent_edge) continue;
        if (w == f.node) continue;  // self-loop: never a bridge
        if (entry[w] == -1) {
          entry[w] = low[w] = timer++;
          st.push({w, h.edge, 0});
        } else {
          low[f.node] = std::min(low[f.node], entry[w]);
        }
      } else {
        const Frame done = f;
        st.pop();
        if (!st.empty()) {
          Frame& up = st.top();
          low[up.node] = std::min(low[up.node], low[done.node]);
          if (low[done.node] > entry[up.node] && done.parent_edge != kNoEdge)
            bridge[done.parent_edge] = true;
        }
      }
    }
  }
  return bridge;
}

}  // namespace

NodeMap<int> distance_to_cycle_or_irregular(const Graph& g,
                                            int regular_degree) {
  const auto bridge = find_bridges(g);
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) != regular_degree) {
      targets.push_back(v);
      continue;
    }
    for (int p = 0; p < g.degree(v); ++p) {
      const HalfEdge h = g.incidence(v, p);
      if (g.is_self_loop(h.edge) || !bridge[h.edge]) {
        targets.push_back(v);
        break;
      }
    }
  }
  if (targets.empty()) return NodeMap<int>(g, kUnreachable);
  return bfs_distances(g, targets);
}

}  // namespace padlock
