#include "algo/color_reduce.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/registry.hpp"
#include "lcl/problems/coloring.hpp"
#include "local/message_engine.hpp"
#include "support/check.hpp"

#include <unordered_set>
#include <vector>

namespace padlock {

namespace {

/// Schedule-by-class reduction on the engine's wake-up calendar: a node
/// sleeps until the round equal to its input color, wakes, reads its inbox
/// once, picks the smallest color no neighbor holds and broadcasts it
/// (final-only, so the engine keeps that message present for neighbors
/// that wake later). Each node is stepped exactly once; with the calendar
/// skipping idle rounds and walking only busy frontier words, the wall
/// time is O(n + m + rounds) while the round count stays max(colors).
struct ColorReduceAlg {
  using Message = std::int32_t;  // the sender's final color
  static constexpr bool kUniformSend = true;  // broadcast once final

  const NodeMap<int>& input;
  NodeMap<int>& out;  // 0 = undecided (doubles as done-bit)

  [[nodiscard]] int wake_round(NodeId v) const { return input[v]; }

  std::optional<Message> send(NodeId v, int /*port*/, int /*round*/) {
    if (out[v] == 0) return std::nullopt;
    return static_cast<Message>(out[v]);
  }

  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    PADLOCK_ASSERT(input[v] == round);
    // At most deg(v) colors are taken, so the answer is at most deg(v) + 1:
    // bit c - 1 of `taken` marks color c for c in [1, deg(v) + 1].
    const auto d = static_cast<std::size_t>(inbox.size());
    thread_local std::vector<std::uint64_t> taken;
    taken.assign(d / 64 + 1, 0);
    for (const auto& m : inbox) {
      if (!m) continue;
      const auto c = static_cast<std::size_t>(*m);
      if (c <= d + 1)
        taken[(c - 1) / 64] |= std::uint64_t{1} << ((c - 1) % 64);
    }
    for (std::size_t w = 0; w < taken.size(); ++w) {
      if (~taken[w] != 0) {
        out[v] = static_cast<int>(w * 64) + std::countr_one(taken[w]) + 1;
        return;
      }
    }
    PADLOCK_ASSERT(false);
  }

  bool done(NodeId v) const { return out[v] != 0; }
};

}  // namespace

ColorReduceResult reduce_to_degree_plus_one(const Graph& g,
                                            const NodeMap<int>& colors,
                                            int num_colors,
                                            MessageEngineStats* stats) {
  PADLOCK_REQUIRE(colors.size() == g.num_nodes());
  PADLOCK_REQUIRE(g.loop_free());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    PADLOCK_REQUIRE(colors[v] >= 1 && colors[v] <= num_colors);
  ColorReduceResult result{NodeMap<int>(g, 0), 0};
  ColorReduceAlg alg{colors, result.colors};
  // The engine stops once the largest *present* input color has acted, so
  // the round count is max(colors) rather than the schedule-length
  // num_colors the retired serial loop always paid (unused classes at the
  // top of the palette cost nothing).
  const std::int64_t budget =
      std::min<std::int64_t>(static_cast<std::int64_t>(num_colors) + 1,
                             std::numeric_limits<int>::max());
  result.rounds = run_message_rounds(g, alg, budget, stats);
  return result;
}

NodeMap<int> greedy_distance_coloring(const Graph& g, int k,
                                      int* num_colors_out) {
  PADLOCK_REQUIRE(k >= 1);
  PADLOCK_REQUIRE(g.loop_free());
  NodeMap<int> colors(g, 0);
  int max_used = 0;
  std::vector<NodeId> frontier, next;
  std::vector<int> depth(g.num_nodes(), -1);
  std::unordered_set<int> used;
  std::vector<NodeId> touched;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    used.clear();
    touched.clear();
    frontier = {v};
    depth[v] = 0;
    touched.push_back(v);
    for (int d = 0; d < k && !frontier.empty(); ++d) {
      next.clear();
      for (NodeId u : frontier) {
        for (int p = 0; p < g.degree(u); ++p) {
          const NodeId w = g.neighbor(u, p);
          if (depth[w] != -1) continue;
          depth[w] = d + 1;
          touched.push_back(w);
          next.push_back(w);
          if (colors[w] != 0) used.insert(colors[w]);
        }
      }
      frontier = next;
    }
    int cand = 1;
    while (used.contains(cand)) ++cand;
    colors[v] = cand;
    if (cand > max_used) max_used = cand;
    for (NodeId t : touched) depth[t] = -1;
  }
  if (num_colors_out != nullptr) *num_colors_out = max_used;
  return colors;
}

bool is_distance_coloring(const Graph& g, const NodeMap<int>& colors, int k) {
  if (colors.size() != g.num_nodes()) return false;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (colors[v] < 1) return false;
  std::vector<int> depth(g.num_nodes(), -1);
  std::vector<NodeId> frontier, next, touched;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    frontier = {v};
    touched = {v};
    depth[v] = 0;
    bool ok = true;
    for (int d = 0; d < k && ok; ++d) {
      next.clear();
      for (NodeId u : frontier) {
        for (int p = 0; p < g.degree(u); ++p) {
          const NodeId w = g.neighbor(u, p);
          if (w == v && d == 0) return false;  // self-loop
          if (depth[w] != -1) continue;
          depth[w] = d + 1;
          touched.push_back(w);
          next.push_back(w);
          if (colors[w] == colors[v]) ok = false;
        }
      }
      frontier = next;
    }
    for (NodeId t : touched) depth[t] = -1;
    if (!ok) return false;
  }
  return true;
}

void register_color_reduce_algos(AlgorithmRegistry& r) {
  r.register_algo({
      .name = "color-reduce",
      .problem = "coloring",
      .determinism = Determinism::kDeterministic,
      .complexity = "O(id_space) -- the trivial linear baseline",
      .requires_text = "loop-free graphs; ids at most 2^31 - 1 (sparse ids "
                       "exceed it from about 1,291 nodes)",
      .precondition = graph_loop_free,
      .solve =
          [](const RunContext& ctx) {
            // Unique ids are a proper coloring of any loop-free graph; the
            // schedule-by-class reduction then pays one round per initial
            // color -- the linear-in-id-space baseline of the landscape.
            // Colors are ints, so the largest id must fit one.
            constexpr std::uint64_t kMaxId = std::numeric_limits<int>::max();
            std::uint64_t max_id = 0;
            for (NodeId v = 0; v < ctx.graph.num_nodes(); ++v)
              max_id = std::max(max_id, ctx.ids[v]);
            if (max_id > kMaxId) {
              throw RegistryError(
                  "coloring/color-reduce needs ids at most 2^31 - 1 = " +
                  std::to_string(kMaxId) + ", got id " +
                  std::to_string(max_id) +
                  " (sparse ids exceed the bound from about 1,291 nodes)");
            }
            NodeMap<int> initial(ctx.graph, 0);
            for (NodeId v = 0; v < ctx.graph.num_nodes(); ++v)
              initial[v] = static_cast<int>(ctx.ids[v]);
            const int num_colors = static_cast<int>(max_id);
            MessageEngineStats es;
            const auto res = reduce_to_degree_plus_one(ctx.graph, initial,
                                                       num_colors, &es);
            AlgoResult out{
                .output = colors_to_labeling(ctx.graph, res.colors),
                .rounds = RoundReport::uniform(ctx.graph, res.rounds),
                .stats = {}};
            out.stats.set("initial_colors", num_colors);
            es.surface(out.stats);
            return out;
          },
  });
}

}  // namespace padlock
