#include "graph/builders.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "store/pg.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace padlock::build {

Graph path(std::size_t n) {
  PADLOCK_REQUIRE(n >= 1);
  GraphBuilder b(n);
  b.add_nodes(n);
  for (std::size_t i = 0; i + 1 < n; ++i)
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  return std::move(b).build();
}

Graph cycle(std::size_t n) {
  PADLOCK_REQUIRE(n >= 1);
  GraphBuilder b(n);
  b.add_nodes(n);
  for (std::size_t i = 0; i < n; ++i)
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  return std::move(b).build();
}

Graph complete_binary_tree(int height) {
  PADLOCK_REQUIRE(height >= 1);
  const std::size_t n = (std::size_t{1} << height) - 1;
  GraphBuilder b(n);
  b.add_nodes(n);
  // Node i has children 2i+1, 2i+2 (heap order).
  for (std::size_t i = 0; i < n; ++i) {
    if (2 * i + 1 < n) b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(2 * i + 1));
    if (2 * i + 2 < n) b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(2 * i + 2));
  }
  return std::move(b).build();
}

Graph torus(std::size_t rows, std::size_t cols) {
  PADLOCK_REQUIRE(rows >= 1 && cols >= 1);
  GraphBuilder b(rows * cols);
  b.add_nodes(rows * cols);
  auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      b.add_edge(at(r, c), at(r, (c + 1) % cols));
      b.add_edge(at(r, c), at((r + 1) % rows, c));
    }
  return std::move(b).build();
}

namespace {

// Pairs up stubs of the configuration model; returns the edge list.
std::vector<std::pair<NodeId, NodeId>> configuration_model(std::size_t n,
                                                           int d, Rng& rng) {
  std::vector<NodeId> stubs;
  stubs.reserve(n * static_cast<std::size_t>(d));
  for (std::size_t v = 0; v < n; ++v)
    for (int k = 0; k < d; ++k) stubs.push_back(static_cast<NodeId>(v));
  // Fisher–Yates shuffle.
  for (std::size_t i = stubs.size(); i > 1; --i)
    std::swap(stubs[i - 1], stubs[rng.below(i)]);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2)
    edges.emplace_back(stubs[i], stubs[i + 1]);
  return edges;
}

Graph from_edge_list(std::size_t n,
                     const std::vector<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder b(edges.size());
  b.add_nodes(n);
  for (auto [u, v] : edges) b.add_edge(u, v);
  return std::move(b).build();
}

// Multiplicity of each unordered node pair {u, v}: one flat open-addressed
// table with linear probing, keyed by the pair packed as (min, max).
// Capacity is a power of two at least twice the number of keys, so probe
// runs stay short; keys are never erased (a count may drop to 0), and the
// table doubles when an insert would take it past half full.
class PairCounts {
 public:
  explicit PairCounts(std::size_t expected_keys) {
    std::size_t cap = 16;
    while (cap < 2 * expected_keys) cap *= 2;
    slots_.assign(cap, Slot{});
  }

  [[nodiscard]] std::uint32_t count(NodeId u, NodeId v) const {
    const Slot& s = slots_[find(u, v)];
    return s.lo == kNoNode ? 0 : s.count;
  }

  void add(NodeId u, NodeId v) {
    std::size_t i = find(u, v);
    if (slots_[i].lo == kNoNode) {
      if (2 * (used_ + 1) > slots_.size()) {
        grow();
        i = find(u, v);
      }
      slots_[i].lo = std::min(u, v);
      slots_[i].hi = std::max(u, v);
      ++used_;
    }
    ++slots_[i].count;
  }

  void remove(NodeId u, NodeId v) {
    Slot& s = slots_[find(u, v)];
    PADLOCK_REQUIRE(s.lo != kNoNode && s.count > 0);
    --s.count;
  }

 private:
  // lo == kNoNode marks an empty slot (kNoNode is never a node id).
  struct Slot {
    NodeId lo = kNoNode;
    NodeId hi = kNoNode;
    std::uint32_t count = 0;
  };

  // The slot holding {u, v}, or the empty slot that ends its probe run.
  [[nodiscard]] std::size_t find(NodeId u, NodeId v) const {
    const NodeId lo = std::min(u, v);
    const NodeId hi = std::max(u, v);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64((std::uint64_t{lo} << 32) | hi) & mask;
    while (slots_[i].lo != kNoNode &&
           (slots_[i].lo != lo || slots_[i].hi != hi))
      i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.lo != kNoNode) slots_[find(s.lo, s.hi)] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

// Repairs self-loops and parallel edges in an edge list by random 2-opt
// switches: a bad edge {u,v} and a random partner {x,y} are rewired to
// {u,x},{v,y} if that introduces no new loop or parallel edge. Returns the
// pair counts of the repaired list.
//
// A switch only creates pairs whose count was 0 and only lowers the counts
// of other pairs, so an edge that is good stays good. One linear scan
// therefore finds every edge the pass will ever have to repair, and a
// second pass over the repaired list would find nothing (it draws no rng),
// so it is skipped.
PairCounts make_simple(std::vector<std::pair<NodeId, NodeId>>& edges,
                       Rng& rng) {
  PairCounts present(edges.size());
  for (auto [u, v] : edges) present.add(u, v);
  auto is_bad = [&](std::size_t i) {
    auto [u, v] = edges[i];
    return u == v || present.count(u, v) > 1;
  };
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < edges.size(); ++i)
    if (is_bad(i)) bad.push_back(i);
  // A generous cap on switch attempts guards against pathological inputs.
  std::size_t guard = 200 * edges.size() + 1000;
  for (const std::size_t i : bad) {
    while (is_bad(i)) {
      PADLOCK_REQUIRE(guard-- > 0);
      const std::size_t j = rng.below(edges.size());
      if (j == i) continue;
      auto [u, v] = edges[i];
      auto [x, y] = edges[j];
      // Candidate rewiring: {u,x} and {v,y}.
      if (u == x || v == y) continue;
      if (present.count(u, x) > 0 || present.count(v, y) > 0) continue;
      present.remove(u, v);
      present.remove(x, y);
      present.add(u, x);
      present.add(v, y);
      edges[i] = {u, x};
      edges[j] = {v, y};
    }
  }
  return present;
}

}  // namespace

Graph random_regular(std::size_t n, int d, std::uint64_t seed) {
  PADLOCK_REQUIRE(d >= 1);
  PADLOCK_REQUIRE((n * static_cast<std::size_t>(d)) % 2 == 0);
  Rng rng(seed);
  return from_edge_list(n, configuration_model(n, d, rng));
}

Graph random_regular_simple(std::size_t n, int d, std::uint64_t seed) {
  PADLOCK_REQUIRE(d >= 1);
  PADLOCK_REQUIRE(n > static_cast<std::size_t>(d));
  PADLOCK_REQUIRE((n * static_cast<std::size_t>(d)) % 2 == 0);
  Rng rng(seed);
  auto edges = configuration_model(n, d, rng);
  (void)make_simple(edges, rng);
  return from_edge_list(n, edges);
}

namespace {

// The d-regular loop-free multigraph high_girth_regular switches on, kept
// mutable: node a's ports are adj[a·d, a·d + d), sorted by edge index —
// the port order from_edge_list gives the built Graph — so a BFS here
// visits ports exactly as one over that Graph would. Each port carries the
// node across it, so a BFS step is one load, not an edge lookup too.
struct SwitchGraph {
  struct Port {
    EdgeId edge;
    NodeId to;
  };

  std::size_t d;
  std::vector<Port> adj;

  SwitchGraph(std::size_t n, std::size_t degree,
              const std::vector<std::pair<NodeId, NodeId>>& edges)
      : d(degree), adj(n * degree) {
    std::vector<std::size_t> fill(n, 0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [u, v] = edges[e];
      adj[u * d + fill[u]++] = {static_cast<EdgeId>(e), v};
      adj[v * d + fill[v]++] = {static_cast<EdgeId>(e), u};
    }
  }

  [[nodiscard]] const Port* ports(NodeId a) const {
    return adj.data() + a * d;
  }

  // Replaces a's port on edge `from` by `to`, keeping the ports sorted.
  void replace(NodeId a, EdgeId from, Port to) {
    Port* p = adj.data() + a * d;
    std::size_t k = 0;
    while (k < d && p[k].edge != from) ++k;
    PADLOCK_REQUIRE(k < d);
    for (; k + 1 < d && p[k + 1].edge < to.edge; ++k) p[k] = p[k + 1];
    for (; k > 0 && p[k - 1].edge > to.edge; --k) p[k] = p[k - 1];
    p[k] = to;
  }
};

// Per-thread BFS state over n nodes; reset through the visit order, so one
// search costs O(ball), not O(n).
struct BfsScratch {
  struct Mark {
    int dist = -1;  // -1 = not reached
    EdgeId via = kNoEdge;
  };

  std::vector<Mark> mark;
  std::vector<NodeId> order;  // the BFS queue, which is also the touched list

  explicit BfsScratch(std::size_t n) : mark(n) {}

  void reset() {
    for (const NodeId t : order) mark[t] = Mark{};
    order.clear();
  }
};

// The edge that a BFS from s truncated at radius min_girth/2 finds on a
// cycle shorter than min_girth, or kNoEdge. Scanning s = 0, 1, ... and
// taking the first hit is the switch order of high_girth_regular.
EdgeId short_cycle_edge(const SwitchGraph& g, NodeId s, int min_girth,
                        BfsScratch& b) {
  const int radius = min_girth / 2;  // cycles of length < min_girth are seen
  b.mark[s].dist = 0;
  b.order.push_back(s);
  EdgeId found = kNoEdge;
  for (std::size_t head = 0; head < b.order.size() && found == kNoEdge;) {
    const NodeId u = b.order[head++];
    const BfsScratch::Mark mu = b.mark[u];
    if (mu.dist >= radius) continue;
    const SwitchGraph::Port* ports = g.ports(u);
    for (std::size_t p = 0; p < g.d; ++p) {
      const auto [e, w] = ports[p];
      if (w == u) {  // self-loop: cycle of length 1
        found = e;
        break;
      }
      BfsScratch::Mark& mw = b.mark[w];
      if (mw.dist == -1) {
        mw = {mu.dist + 1, e};
        b.order.push_back(w);
        if (mu.dist + 1 < radius) __builtin_prefetch(g.ports(w));
      } else if (mw.via != e && mu.via != e) {
        // Non-tree edge closing a cycle of length <= dist[u]+dist[w]+1
        // < min_girth within the truncated ball.
        if (mu.dist + mw.dist + 1 < min_girth) {
          found = e;
          break;
        }
      }
    }
  }
  b.reset();
  return found;
}

// Appends every node within `radius` of `sources` to `out`.
void ball(const SwitchGraph& g, const std::array<NodeId, 4>& sources,
          int radius, BfsScratch& b, std::vector<NodeId>& out) {
  for (const NodeId s : sources) {
    if (b.mark[s].dist != -1) continue;
    b.mark[s].dist = 0;
    b.order.push_back(s);
  }
  for (std::size_t head = 0; head < b.order.size(); ++head) {
    const NodeId u = b.order[head];
    const int du = b.mark[u].dist;
    if (du >= radius) continue;
    for (std::size_t p = 0; p < g.d; ++p) {
      const NodeId w = g.ports(u)[p].to;
      if (b.mark[w].dist != -1) continue;
      b.mark[w].dist = du + 1;
      b.order.push_back(w);
    }
  }
  out.insert(out.end(), b.order.begin(), b.order.end());
  b.reset();
}

// Sources per chunk of the initial short-cycle scan; a graph of one chunk
// is scanned inline on the caller.
constexpr std::size_t kScanChunk = std::size_t{1} << 15;

// short_cycle_edge from every source, over the pool.
std::vector<EdgeId> scan_all_sources(const SwitchGraph& g, std::size_t n,
                                     int min_girth) {
  std::vector<EdgeId> found(n, kNoEdge);
  std::mutex mu;
  std::vector<std::unique_ptr<BfsScratch>> spare;
  auto scan = [&](std::size_t lo, std::size_t hi) {
    std::unique_ptr<BfsScratch> b;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!spare.empty()) {
        b = std::move(spare.back());
        spare.pop_back();
      }
    }
    if (!b) b = std::make_unique<BfsScratch>(n);
    for (std::size_t s = lo; s < hi; ++s)
      found[s] = short_cycle_edge(g, static_cast<NodeId>(s), min_girth, *b);
    std::lock_guard<std::mutex> lock(mu);
    spare.push_back(std::move(b));
  };
  if (n <= kScanChunk) {
    scan(0, n);
  } else {
    parallel_for(0, n, kScanChunk, scan);
  }
  return found;
}

}  // namespace

Graph high_girth_regular(std::size_t n, int d, int girth_target,
                         std::uint64_t seed) {
  PADLOCK_REQUIRE(girth_target >= 3);
  PADLOCK_REQUIRE((n * static_cast<std::size_t>(d)) % 2 == 0);
  // Moore bound sanity: a d-regular graph of girth g needs at least about
  // (d-1)^((g-1)/2) nodes; require headroom so the switch process converges.
  double moore = 1;
  for (int i = 0; i < (girth_target - 1) / 2; ++i) moore *= (d - 1);
  PADLOCK_REQUIRE(static_cast<double>(n) >= 4 * moore);

  Rng rng(mix64(seed ^ 0x5bd1e995));
  auto edges = configuration_model(n, d, rng);
  PairCounts present = make_simple(edges, rng);

  // found[s] is what the short-cycle BFS from s returns on the current
  // graph, unless stale[s] is set; the next edge to switch is the one found
  // from the lowest source that finds any, as a full rescan from node 0
  // would pick it. A switch of {u,v},{x,y} changes only the ports of its
  // four endpoints W, and a BFS reads only the ports of nodes closer than
  // radius = girth_target/2 to its source. So the BFS from s can change
  // only if it reads a port of W both before and after the switch: s lies
  // within radius - 1 of W in both graphs. Exactly those sources go stale,
  // and each is rescanned once the search for the lowest hit reaches it.
  SwitchGraph sg(n, static_cast<std::size_t>(d), edges);
  std::vector<EdgeId> found = scan_all_sources(sg, n, girth_target);
  std::vector<char> stale(n, 0);
  const int near = girth_target / 2 - 1;
  BfsScratch scratch(n);
  std::vector<char> near_before(n, 0);
  std::vector<NodeId> region;
  std::size_t lowest = 0;
  std::size_t guard = 50 * n + 10000;
  while (true) {
    for (; lowest < n; ++lowest) {
      if (stale[lowest]) {
        found[lowest] = short_cycle_edge(sg, static_cast<NodeId>(lowest),
                                         girth_target, scratch);
        stale[lowest] = 0;
      }
      if (found[lowest] != kNoEdge) break;
    }
    if (lowest == n) break;
    const EdgeId bad = found[lowest];
    // 2-opt switch the offending edge with a random partner.
    std::size_t j = 0;
    while (true) {
      PADLOCK_REQUIRE(guard-- > 0);
      j = rng.below(edges.size());
      if (j == bad) continue;
      auto [u, v] = edges[bad];
      auto [x, y] = edges[j];
      if (u == x || v == y) continue;
      if (present.count(u, x) > 0 || present.count(v, y) > 0) continue;
      break;
    }
    const auto [u, v] = edges[bad];
    const auto [x, y] = edges[j];
    const std::array<NodeId, 4> touched = {u, v, x, y};
    region.clear();
    ball(sg, touched, near, scratch, region);
    const std::size_t before = region.size();
    for (const NodeId a : region) near_before[a] = 1;
    present.remove(u, v);
    present.remove(x, y);
    present.add(u, x);
    present.add(v, y);
    edges[bad] = {u, x};
    edges[j] = {v, y};
    sg.replace(u, bad, {bad, x});
    sg.replace(v, bad, {static_cast<EdgeId>(j), y});
    sg.replace(x, static_cast<EdgeId>(j), {bad, u});
    sg.replace(y, static_cast<EdgeId>(j), {static_cast<EdgeId>(j), v});
    ball(sg, touched, near, scratch, region);
    for (std::size_t k = before; k < region.size(); ++k) {
      const NodeId s = region[k];
      if (!near_before[s]) continue;
      stale[s] = 1;
      lowest = std::min<std::size_t>(lowest, s);
    }
    for (std::size_t k = 0; k < before; ++k) near_before[region[k]] = 0;
  }
  return from_edge_list(n, edges);
}

Graph random_bounded_degree(std::size_t n, int max_deg, double density,
                            std::uint64_t seed) {
  PADLOCK_REQUIRE(n >= 1);
  PADLOCK_REQUIRE(max_deg >= 0);
  PADLOCK_REQUIRE(density >= 0 && density <= 1);
  Rng rng(seed);
  GraphBuilder b(n);
  b.add_nodes(n);
  std::vector<int> deg(n, 0);
  const auto target =
      static_cast<std::size_t>(density * static_cast<double>(n) *
                               static_cast<double>(max_deg) / 2.0);
  std::size_t attempts = 4 * target + 16;
  std::size_t added = 0;
  while (added < target && attempts-- > 0) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    const int loop_cost = (u == v) ? 2 : 1;
    if (deg[u] + loop_cost > max_deg || deg[v] + 1 > max_deg) continue;
    if (u == v) {
      deg[u] += 2;
    } else {
      ++deg[u];
      ++deg[v];
    }
    b.add_edge(u, v);
    ++added;
  }
  return std::move(b).build();
}

std::vector<std::string> family_names() {
  return {"bounded",    "cubic", "cubic-simple", "cycle", "high-girth",
          "multigraph", "path",  "regular",      "torus", "tree"};
}

namespace {

// Bumps n until it satisfies the d-regular builder preconditions: n > d and
// an even degree sum.
std::size_t regular_n(std::size_t n, int d) {
  n = std::max<std::size_t>(n, static_cast<std::size_t>(d) + 1);
  if ((n * static_cast<std::size_t>(d)) % 2 != 0) ++n;
  return n;
}

}  // namespace

bool is_file_family(const std::string& name) {
  return name.rfind("file:", 0) == 0;
}

Graph family(const std::string& name, std::size_t n, int degree,
             std::uint64_t seed) {
  // File-backed families dispatch before the synthetic-parameter checks:
  // the file *is* the instance, so n/degree/seed do not constrain it.
  if (is_file_family(name))
    return store::load_graph_file(name.substr(5));
  PADLOCK_REQUIRE(n >= 1);
  PADLOCK_REQUIRE(degree >= 1);
  if (name == "path") return path(n);
  if (name == "cycle") return cycle(n);
  if (name == "tree") {
    int height = 1;
    while (((std::size_t{1} << height) - 1) < n) ++height;
    return complete_binary_tree(height);
  }
  if (name == "torus") return torus(n / 8 + (n % 8 != 0 ? 1 : 0), 8);
  if (name == "regular" || name == "cubic-simple") {
    const int d = name == "regular" ? degree : 3;
    return random_regular_simple(regular_n(n, d), d, seed);
  }
  if (name == "multigraph" || name == "cubic") {
    const int d = name == "multigraph" ? degree : 3;
    return random_regular(regular_n(n, d), d, seed);
  }
  if (name == "high-girth") {
    // Girth floor scales with n like the paper's lower-bound instances
    // (2·log2(n)/3), never below the CLI's historical floor of 6.
    const std::size_t nn = regular_n(n, degree);
    int lg = 0;
    while ((std::size_t{1} << (lg + 1)) <= nn) ++lg;
    return high_girth_regular(nn, degree, std::max(6, 2 * lg / 3), seed);
  }
  if (name == "bounded") {
    return random_bounded_degree_simple(n, degree, 0.6, seed);
  }
  std::string known;
  for (const std::string& f : family_names()) known += " " + f;
  throw std::invalid_argument("unknown graph family '" + name +
                              "'; expected one of:" + known);
}

FamilyKey canonical_key(const std::string& name, std::size_t n, int degree,
                        std::uint64_t seed) {
  // Keep this in sync with family(): the key must collapse exactly the
  // parameters family() ignores, nothing more.
  if (is_file_family(name)) {
    // The key carries the file's content identity, not just its path: a
    // regenerated file gets a fresh fingerprint and therefore a fresh
    // cache slot. canonical_key must not throw (run_batch calls it while
    // deduping the menu), so unreadable paths key as 0 and fail later at
    // build time, attributed to their row.
    std::uint64_t fingerprint = 0;
    try {
      fingerprint = store::file_fingerprint(name.substr(5));
    } catch (...) {
      fingerprint = 0;
    }
    return {name, 0, 0, fingerprint};
  }
  if (name == "cubic") return {"multigraph", n, 3, seed};
  if (name == "cubic-simple") return {"regular", n, 3, seed};
  if (name == "path" || name == "cycle" || name == "tree" || name == "torus") {
    return {name, n, 0, 0};
  }
  return {name, n, degree, seed};
}

Graph random_bounded_degree_simple(std::size_t n, int max_deg, double density,
                                   std::uint64_t seed) {
  PADLOCK_REQUIRE(n >= 1);
  PADLOCK_REQUIRE(max_deg >= 0);
  PADLOCK_REQUIRE(density >= 0 && density <= 1);
  Rng rng(seed);
  GraphBuilder b(n);
  b.add_nodes(n);
  std::vector<int> deg(n, 0);
  const auto target =
      static_cast<std::size_t>(density * static_cast<double>(n) *
                               static_cast<double>(max_deg) / 2.0);
  // A simple graph has at most n(n-1)/2 edges, however large max_deg is.
  PairCounts adjacent(std::min(target, n * (n - 1) / 2));
  std::size_t attempts = 8 * target + 16;
  std::size_t added = 0;
  while (added < target && attempts-- > 0) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (deg[u] + 1 > max_deg || deg[v] + 1 > max_deg) continue;
    if (adjacent.count(u, v) > 0) continue;
    ++deg[u];
    ++deg[v];
    adjacent.add(u, v);
    b.add_edge(u, v);
    ++added;
  }
  return std::move(b).build();
}

}  // namespace padlock::build
