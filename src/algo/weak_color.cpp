#include "algo/weak_color.hpp"

#include "core/registry.hpp"
#include "lcl/problems/weak_coloring.hpp"

#include <algorithm>
#include <vector>

#include "algo/linial.hpp"
#include "local/engine_bitset.hpp"
#include "local/message_engine.hpp"
#include "support/check.hpp"

namespace padlock {

namespace {

/// Engine-v2 state machine of the pointer-parity phase (after Linial):
/// round 1 learns neighbor colors and sets the pointer toward a strictly
/// smaller proper color; rounds 2..k+1 forward chain lengths; round k+2
/// exchanges parity colors and flips unhappy sinks. All nodes share the
/// fixed k = Δ+1 schedule, so they halt together.
struct PointerParityAlg {
  // Every value on the wire fits 32 bits (proper Linial colors, chain
  // lengths ≤ Δ+2, parity colors 1/2), so the Message itself is the 4-byte
  // wire form — half the v2-era int64 slab with no pack/unpack at all.
  using Message = std::int32_t;  // round 1: proper color; then chain; then
                                 // parity color
  static constexpr bool kUniformSend = true;  // broadcast each round

  const NodeMap<int>& proper;      // Linial colors
  int k;                           // chain-forwarding rounds (Δ+1)
  std::vector<std::int32_t> pointee_port;  // -1 = sink or isolated
  std::vector<std::int32_t> chain;
  WordBitset color2;   // weak 2-coloring: set = color 2, clear = color 1
  WordBitset flipped;  // repaired sinks
  std::vector<std::int32_t> left;

  PointerParityAlg(std::size_t n, const NodeMap<int>& proper_in, int k_in)
      : proper(proper_in), k(k_in), pointee_port(n, -1), chain(n, 0),
        color2(n), flipped(n), left(n, k_in + 2) {}

  [[nodiscard]] std::int32_t color_of(NodeId v) const {
    return color2.test(v) ? 2 : 1;
  }

  std::optional<Message> send(NodeId v, int /*port*/, int round) {
    if (round == 1) return static_cast<Message>(proper[v]);
    if (round <= k + 1) return chain[v];
    return color_of(v);
  }

  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    --left[v];
    if (round == 1) {
      // Point toward the first strictly smaller proper color in port
      // order (any port of the minimal neighbor carries its chain value).
      std::int32_t best = static_cast<std::int32_t>(proper[v]);
      for (int p = 0; p < inbox.size(); ++p) {
        if (inbox[p] && *inbox[p] < best) {
          best = *inbox[p];
          pointee_port[v] = p;
        }
      }
      return;
    }
    if (round <= k + 1) {
      chain[v] = pointee_port[v] < 0 ? 0 : *inbox[pointee_port[v]] + 1;
      if (round == k + 1 && chain[v] % 2 != 0) color2.set(v);
      return;
    }
    // Repair round: an unhappy sink (every neighbor shares its color)
    // flips. Sinks are independent, and no flip orphans another node
    // (see header).
    if (pointee_port[v] >= 0 || inbox.size() == 0) return;
    for (const auto& m : inbox) {
      if (m && *m != color_of(v)) return;
    }
    if (color2.test(v)) color2.reset(v);
    else color2.set(v);
    flipped.set(v);
  }

  bool done(NodeId v) const { return left[v] == 0; }
};

}  // namespace

WeakColorResult weak_2color(const Graph& g, const IdMap& ids,
                            std::uint64_t id_space,
                            MessageEngineStats* stats) {
  const std::size_t n = g.num_nodes();
  WeakColorResult res;
  res.colors = NodeMap<int>(n, 1);
  if (n == 0) return res;
  PADLOCK_REQUIRE(g.loop_free());

  const LinialResult lin = linial_color(g, ids, id_space);
  // Chains strictly decrease the proper color, so they stabilize after
  // < k+1 forwarding steps.
  const int k = g.max_degree() + 1;

  PointerParityAlg alg(n, lin.colors, k);
  const int engine_rounds =
      run_message_rounds(g, alg, static_cast<std::int64_t>(k) + 3, stats);
  for (NodeId v = 0; v < n; ++v) {
    res.colors[v] = alg.color_of(v);
    if (alg.pointee_port[v] < 0 && g.degree(v) > 0) ++res.sinks;
    if (alg.flipped.test(v)) ++res.repaired;
  }

  // Linial, plus the engine's pointer/chain/repair schedule (one round to
  // learn neighbor colors, k chain rounds, one repair round).
  res.rounds = lin.total_rounds() + engine_rounds;
  return res;
}


void register_weak_color_algos(AlgorithmRegistry& r) {
  r.register_algo({
      .name = "pointer-parity",
      .problem = "weak-coloring",
      .determinism = Determinism::kDeterministic,
      .complexity = "Theta(log* n)",
      .requires_text = "loop-free graphs",
      .precondition = graph_loop_free,
      .solve =
          [](const RunContext& ctx) {
            MessageEngineStats es;
            const auto res =
                weak_2color(ctx.graph, ctx.ids, ctx.id_space, &es);
            AlgoResult out{
                .output = weak_coloring_to_labeling(ctx.graph, res.colors),
                .rounds = RoundReport::uniform(ctx.graph, res.rounds),
                .stats = {}};
            out.stats.set("sinks", res.sinks);
            out.stats.set("repaired", res.repaired);
            es.surface(out.stats);
            return out;
          },
  });
}

}  // namespace padlock
