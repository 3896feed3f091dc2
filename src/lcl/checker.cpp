#include "lcl/checker.hpp"

#include <algorithm>
#include <mutex>
#include <optional>

#include "support/thread_pool.hpp"

namespace padlock {

void fill_node_env(const Graph& g, NodeId v, const NeLabeling& input,
                   const NeLabeling& output, NodeEnvStorage& storage) {
  const PortRange ports = g.incident(v);
  const std::size_t deg = ports.size();
  storage.edge_in.resize(deg);
  storage.edge_out.resize(deg);
  storage.half_in.resize(deg);
  storage.half_out.resize(deg);
  std::size_t i = 0;
  for (const HalfEdge h : ports) {
    storage.edge_in[i] = input.edge[h.edge];
    storage.edge_out[i] = output.edge[h.edge];
    storage.half_in[i] = input.half[h];
    storage.half_out[i] = output.half[h];
    ++i;
  }
  storage.env = NodeEnv{
      .degree = static_cast<int>(deg),
      .node_in = input.node[v],
      .node_out = output.node[v],
      .edge_in = storage.edge_in,
      .edge_out = storage.edge_out,
      .half_in = storage.half_in,
      .half_out = storage.half_out,
  };
}

EdgeEnv make_edge_env(const Graph& g, EdgeId e, const NeLabeling& input,
                      const NeLabeling& output) {
  EdgeEnv env;
  env.self_loop = g.is_self_loop(e);
  env.edge_in = input.edge[e];
  env.edge_out = output.edge[e];
  for (int side = 0; side < 2; ++side) {
    const NodeId v = g.endpoint(e, side);
    const HalfEdge h{e, side};
    env.node_in[side] = input.node[v];
    env.node_out[side] = output.node[v];
    env.half_in[side] = input.half[h];
    env.half_out[side] = output.half[h];
  }
  return env;
}

namespace {

// Violations found by one index chunk. Each chunk keeps at most
// `max_violations` sites (the global report can never use more than that
// many from any one chunk) plus the full count, so the ordered merge below
// reconstructs exactly what the serial scan would have produced.
struct ChunkHits {
  std::size_t chunk_begin = 0;
  std::vector<Violation> sites;
  std::size_t total = 0;
};

// Scans the constraint space [0, count) in parallel chunks; `test(i)`
// returns the violation at index i or std::nullopt. Appends the merged,
// index-ordered hits to `result`.
template <typename TestFn>
void scan_sites(std::size_t count, std::size_t max_violations,
                CheckResult& result, const TestFn& test) {
  std::mutex mu;
  std::vector<ChunkHits> chunks;
  parallel_for(0, count, 0, [&](std::size_t begin, std::size_t end) {
    ChunkHits hits;
    hits.chunk_begin = begin;
    for (std::size_t i = begin; i < end; ++i) {
      if (auto v = test(i)) {
        ++hits.total;
        if (hits.sites.size() < max_violations) hits.sites.push_back(*v);
      }
    }
    if (hits.total == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(std::move(hits));
  });

  std::sort(chunks.begin(), chunks.end(),
            [](const ChunkHits& a, const ChunkHits& b) {
              return a.chunk_begin < b.chunk_begin;
            });
  for (const ChunkHits& hits : chunks) {
    for (std::size_t j = 0; j < hits.total; ++j) {
      // j >= sites.size() only once this chunk alone overflowed the cap, so
      // the global list is already full and the dummy site is never stored.
      const Violation v = j < hits.sites.size() ? hits.sites[j] : Violation{};
      result.add_violation(v, max_violations);
    }
  }
}

}  // namespace

CheckResult check_ne_lcl(const Graph& g, const NeLcl& lcl,
                         const NeLabeling& input, const NeLabeling& output,
                         std::size_t max_violations) {
  PADLOCK_REQUIRE(input.node.size() == g.num_nodes());
  PADLOCK_REQUIRE(output.node.size() == g.num_nodes());

  CheckResult result;
  // Node constraint space. Per-chunk NodeEnvStorage scratch keeps the span
  // buffers off the allocator's hot path without any sharing across chunks.
  scan_sites(g.num_nodes(), max_violations, result,
             [&](std::size_t i) -> std::optional<Violation> {
               thread_local NodeEnvStorage storage;
               const auto v = static_cast<NodeId>(i);
               fill_node_env(g, v, input, output, storage);
               if (lcl.node_ok(storage.env)) return std::nullopt;
               return Violation{Violation::Site::kNode, v, kNoEdge};
             });
  // Edge constraint space.
  scan_sites(g.num_edges(), max_violations, result,
             [&](std::size_t i) -> std::optional<Violation> {
               const auto e = static_cast<EdgeId>(i);
               if (lcl.edge_ok(make_edge_env(g, e, input, output))) {
                 return std::nullopt;
               }
               return Violation{Violation::Site::kEdge, kNoNode, e};
             });
  return result;
}

}  // namespace padlock
