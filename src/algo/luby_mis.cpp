#include "algo/luby_mis.hpp"

#include <algorithm>
#include <limits>

#include "core/registry.hpp"
#include "lcl/problems/mis.hpp"

#include "local/engine_bitset.hpp"
#include "local/message_engine.hpp"
#include "support/rng.hpp"

namespace padlock {

namespace {

struct LubyAlg {
  // Wire layout: one 64-bit word. Odd rounds carry the drawn priority;
  // even rounds carry the join flag (0/1). The v2-era message was the
  // (priority, id) pair — 16 slab bytes — but the id only ever broke
  // priority ties, and the receiver can look the sender's id up locally
  // (the message on port p comes from neighbor(v, p)), so it no longer
  // travels. Bit-identical outcomes, half the slab traffic.
  using Message = std::uint64_t;
  // Broadcast: the same value goes out on every port (the port-0 guard in
  // send only dedups the priority draw, which the uniform path preserves).
  static constexpr bool kUniformSend = true;

  const Graph& g;
  const IdMap& ids;
  std::uint64_t seed;
  // Packed node state: decided(v) is done(v); in_set(v) only meaningful
  // once decided. Written only by v's own send/step — phases chunk on word
  // boundaries, so plain bit stores are single-writer.
  WordBitset decided;
  WordBitset in_set;
  std::vector<std::uint64_t> prio;

  LubyAlg(const Graph& g_in, const IdMap& ids_in, std::uint64_t seed_in)
      : g(g_in),
        ids(ids_in),
        seed(seed_in),
        decided(g_in.num_nodes()),
        in_set(g_in.num_nodes()),
        prio(g_in.num_nodes(), 0) {}

  std::optional<Message> send(NodeId v, int port, int round) {
    if (round % 2 == 1) {
      if (decided.test(v)) return std::nullopt;
      // Fresh randomness each iteration, derived deterministically. Ports
      // are visited in ascending order within one send phase, so the draw
      // happens once per node per iteration, not once per port.
      if (port == 0) {
        Rng rng(per_node_seed(seed ^ static_cast<std::uint64_t>(round),
                              ids[v]));
        prio[v] = rng();
      }
      return prio[v];
    }
    return Message{decided.test(v) && in_set.test(v) ? 1u : 0u};
  }

  // Inbox-shape agnostic: any optional-like per-port inbox works (the
  // engine passes a PackedInbox).
  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    if (decided.test(v)) return;
    if (round % 2 == 1) {
      // Join if strictly minimal among undecided neighbors (ties by id,
      // resolved against the locally known neighbor id).
      const int ports = inbox.size();
      for (int p = 0; p < ports; ++p) {
        const auto m = inbox[p];
        if (!m) continue;
        if (*m < prio[v]) return;
        if (*m == prio[v]) {
          const std::uint64_t nid = ids[g.neighbor(v, p)];
          PADLOCK_ASSERT(nid != ids[v]);
          if (nid < ids[v]) return;
        }
      }
      decided.set(v);
      in_set.set(v);
    } else {
      for (const auto& m : inbox) {
        if (m && *m == 1) {
          decided.set(v);
          return;
        }
      }
    }
  }

  bool done(NodeId v) const { return decided.test(v); }
};

/// Round budget shared by both engines, computed in 64-bit: the old
/// `64 * (2 + (int)n)` overflowed signed int for n ≳ 2^25.
std::int64_t luby_round_budget(const Graph& g) {
  const std::int64_t budget =
      64 * (2 + static_cast<std::int64_t>(g.num_nodes()));
  return std::min<std::int64_t>(budget, std::numeric_limits<int>::max());
}

void check_luby_preconditions(const Graph& g, const IdMap& ids) {
  PADLOCK_REQUIRE(ids_valid(g, ids));
  PADLOCK_REQUIRE(g.loop_free());
}

MisResult collect(const Graph& g, const LubyAlg& alg, int rounds) {
  MisResult result{NodeMap<bool>(g, false), rounds};
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    result.in_set[v] = alg.in_set.test(v);
  return result;
}

}  // namespace

MisResult luby_mis(const Graph& g, const IdMap& ids, std::uint64_t seed,
                   MessageEngineStats* stats) {
  check_luby_preconditions(g, ids);
  LubyAlg alg(g, ids, seed);
  const int rounds = run_message_rounds(g, alg, luby_round_budget(g), stats);
  return collect(g, alg, rounds);
}


void register_luby_mis_algos(AlgorithmRegistry& r) {
  r.register_algo({
      .name = "luby",
      .problem = "mis",
      .determinism = Determinism::kRandomized,
      .complexity = "O(log n) whp",
      .requires_text = "loop-free graphs",
      .precondition = graph_loop_free,
      .solve =
          [](const RunContext& ctx) {
            MessageEngineStats es;
            const auto res = luby_mis(ctx.graph, ctx.ids, ctx.seed, &es);
            AlgoResult out{
                .output = mis_to_labeling(ctx.graph, res.in_set),
                .rounds = RoundReport::uniform(ctx.graph, res.rounds),
                .stats = {}};
            es.surface(out.stats);
            return out;
          },
  });
}

}  // namespace padlock
