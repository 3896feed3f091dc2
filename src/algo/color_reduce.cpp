#include "algo/color_reduce.hpp"

#include <algorithm>
#include <limits>

#include "core/registry.hpp"
#include "lcl/problems/coloring.hpp"
#include "local/engine_bitset.hpp"
#include "local/message_engine.hpp"
#include "support/check.hpp"

#include <unordered_set>
#include <vector>

namespace padlock {

namespace {

/// Engine-v2 state machine of the schedule-by-class reduction: a node acts
/// in the round equal to its input color, picking the smallest palette
/// color no finalized neighbor holds, and broadcasts that choice exactly
/// once (its drain round). Receivers *remember* arrived colors in a flat
/// per-node mask, so no re-broadcast is ever needed — silence from a
/// long-halted neighbor carries the same information as its last message.
struct ColorReduceAlg {
  using Message = std::int32_t;  // the sender's freshly-final color
  static constexpr bool kUniformSend = true;  // broadcast once final

  const NodeMap<int>& input;
  int palette;
  NodeMap<int>& out;  // 0 = undecided (doubles as done-bit)
  // Node-major [n][palette + 1] seen-color mask, one bit per palette slot
  // (the v2-era byte mask, 8x denser). Adjacent nodes' mask regions share
  // words at the boundaries, so writes go through atomic fetch_or and the
  // candidate scan reads through atomic loads — a neighbor's concurrent
  // writes only ever touch *its* bits, so v's own bits are stable.
  WordBitset used;

  ColorReduceAlg(const Graph& g, const NodeMap<int>& input_in,
                 int palette_in, NodeMap<int>& out_in)
      : input(input_in), palette(palette_in), out(out_in),
        used(g.num_nodes() * (static_cast<std::size_t>(palette_in) + 1)) {}

  [[nodiscard]] std::size_t mask_base(NodeId v) const {
    return static_cast<std::size_t>(v) *
           (static_cast<std::size_t>(palette) + 1);
  }

  std::optional<Message> send(NodeId v, int /*port*/, int /*round*/) {
    if (out[v] == 0) return std::nullopt;
    return static_cast<Message>(out[v]);
  }

  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    const std::size_t base = mask_base(v);
    for (const auto& m : inbox) {
      if (!m) continue;
      const int nc = static_cast<int>(*m);
      if (nc >= 1 && nc <= palette)
        used.set_atomic(base + static_cast<std::size_t>(nc));
    }
    if (input[v] != round) return;
    for (int cand = 1; cand <= palette; ++cand) {
      if (!used.test_atomic(base + static_cast<std::size_t>(cand))) {
        out[v] = cand;
        break;
      }
    }
    PADLOCK_ASSERT(out[v] >= 1);
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
  const int palette = g.max_degree() + 1;
  ColorReduceResult result{NodeMap<int>(g, 0), 0};
  ColorReduceAlg alg(g, colors, palette, result.colors);
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
      .requires_text = "loop-free graphs",
      .precondition = graph_loop_free,
      .solve =
          [](const RunContext& ctx) {
            // Unique ids are a proper coloring of any loop-free graph; the
            // schedule-by-class reduction then pays one round per initial
            // color -- the linear-in-id-space baseline of the landscape.
            NodeMap<int> initial(ctx.graph, 0);
            int num_colors = 0;
            for (NodeId v = 0; v < ctx.graph.num_nodes(); ++v) {
              PADLOCK_REQUIRE(ctx.ids[v] <=
                              static_cast<std::uint64_t>(
                                  std::numeric_limits<int>::max()));
              initial[v] = static_cast<int>(ctx.ids[v]);
              num_colors = std::max(num_colors, initial[v]);
            }
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
