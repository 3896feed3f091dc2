#include "algo/matching.hpp"

#include "algo/linial.hpp"
#include "core/registry.hpp"
#include "lcl/problems/matching.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "local/engine_bitset.hpp"
#include "local/message_engine.hpp"
#include "support/rng.hpp"

namespace padlock {

namespace {

// Shared port bookkeeping of both matching state machines: a per-port
// "dead" bit (self-loop, or the neighbor across it announced it matched)
// in node-major CSR order plus a live-port counter, so one node's ports
// are one contiguous bit run. A node retires once no live port remains —
// every neighbor is matched, so maximality cannot be improved through it.
//
// The dead bitset is port-indexed, so adjacent nodes' port runs share
// words at chunk boundaries of a pooled step phase; kill() therefore goes
// through an atomic fetch_or (ORs of per-node-disjoint masks commute —
// bit-identical for any thread count). Only step(v) kills v's ports, so
// the returned previous bit is exact and the live counter stays a plain
// per-node write. is_live() reads through a relaxed-atomic load: only
// send calls it, and the engine joins between the send and step phases,
// so no kill() runs concurrently with it; the load is free on x86 and
// keeps every access to the shared words atomic (the loaded value of the
// caller's bits is unaffected either way).
struct PortLiveness {
  std::vector<std::size_t> offset;  // CSR: ports of v at [offset[v], ...)
  WordBitset dead;
  std::vector<std::int32_t> live;  // per-node live-port count

  explicit PortLiveness(const Graph& g)
      : offset(g.num_nodes() + 1, 0),
        dead(2 * g.num_edges()),
        live(g.num_nodes(), 0) {
    std::size_t at = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      offset[v] = at;
      int count = 0;
      for (const HalfEdge h : g.incident(v)) {
        if (g.is_self_loop(h.edge)) dead.set(at);
        else ++count;
        ++at;
      }
      live[v] = count;
    }
    offset[g.num_nodes()] = at;
  }

  void kill(NodeId v, int port) {
    const std::size_t i = offset[v] + static_cast<std::size_t>(port);
    if (!dead.fetch_set_atomic(i)) --live[v];
  }

  [[nodiscard]] bool is_live(NodeId v, int port) const {
    return !dead.test_atomic(offset[v] + static_cast<std::size_t>(port));
  }
};

// Node lifecycle of both machines, packed into two node-indexed bitsets
// (written only by the node's own step — plain stores under word-chunked
// phases): halted(v) is done(v); matched(v) distinguishes a matched halt
// from a retired one (no live ports left).

// ---- randomized propose-accept ---------------------------------------------
//
// Engine-v2 state machine, three rounds per iteration:
//
//   propose   an unmatched node picks a uniformly random live port and
//             proposes on it (message carries its id);
//   accept    a node with incoming proposals accepts the smallest-id
//             proposer;
//   confirm   a proposer whose proposal was accepted matches iff it
//             accepted nobody itself or the acceptance was mutual (same
//             edge); it confirms on that port while draining, which tells
//             the acceptor to match too.
//
// A matched node's drain round doubles as its "matched" broadcast on every
// other port, so neighbors prune dead ports without any extra phase. The
// retired serial loop resolved chains of acceptances by a global
// acceptor-index sweep — a rule no O(1)-round local algorithm can
// implement — so outputs differ from it on acceptance chains; the result
// is still a maximal matching (checker-verified) with the same O(log n)
// w.h.p. iteration count, and it is what the committed golden pins.
struct ProposeAcceptAlg {
  struct Msg {
    std::uint8_t type = 0;
    std::uint64_t id = 0;
  };
  using Message = Msg;
  static constexpr std::uint8_t kPropose = 1;
  static constexpr std::uint8_t kAccept = 2;
  static constexpr std::uint8_t kConfirm = 3;
  static constexpr std::uint8_t kMatchedFlag = 4;

  // Wire layout: type in the low 3 bits, the proposer id in the high 61 —
  // 8 slab bytes instead of the padded 16-byte struct. Ids are bounded by
  // the id space (poly(n)), far below 2^61; pack asserts it.
  struct Wire {
    using Packed = std::uint64_t;
    static Packed pack(const Message& m) {
      PADLOCK_ASSERT(m.id < (std::uint64_t{1} << 61));
      return (m.id << 3) | m.type;
    }
    static Message unpack(Packed p) {
      return Msg{static_cast<std::uint8_t>(p & 7), p >> 3};
    }
  };

  const Graph& g;
  const IdMap& ids;
  std::uint64_t seed;
  PortLiveness ports;
  WordBitset halted;   // done(v)
  WordBitset matched;  // halted and holding a matching edge
  std::vector<std::int32_t> proposal_port;  // this iteration, -1 = none
  std::vector<std::int32_t> accept_port;    // this iteration, -1 = none
  std::vector<std::int32_t> matched_port;   // -1 until matched

  ProposeAcceptAlg(const Graph& g_in, const IdMap& ids_in,
                   std::uint64_t seed_in)
      : g(g_in), ids(ids_in), seed(seed_in), ports(g_in),
        halted(g_in.num_nodes()),
        matched(g_in.num_nodes()),
        proposal_port(g_in.num_nodes(), -1),
        accept_port(g_in.num_nodes(), -1),
        matched_port(g_in.num_nodes(), -1) {}

  static int phase(int round) { return (round - 1) % 3; }
  static std::uint64_t iteration(int round) {
    return static_cast<std::uint64_t>((round - 1) / 3) + 1;
  }

  std::optional<Message> send(NodeId v, int port, int round) {
    if (matched.test(v)) {
      // Drain round: confirm toward the matching partner, announce the
      // match everywhere else.
      if (port == matched_port[v]) return Msg{kConfirm, 0};
      return Msg{kMatchedFlag, 0};
    }
    if (halted.test(v)) return std::nullopt;  // retired
    switch (phase(round)) {
      case 0: {  // propose
        if (ports.live[v] <= 0) return std::nullopt;
        if (proposal_port[v] == -1) {
          // Fresh randomness per iteration; pick among live ports in port
          // order (the analogue of the retired loop's candidate list).
          Rng rng(per_node_seed(seed ^ iteration(round), ids[v]));
          std::int32_t skip =
              static_cast<std::int32_t>(rng.below(
                  static_cast<std::uint64_t>(ports.live[v])));
          for (int p = 0; p < g.degree(v); ++p) {
            if (!ports.is_live(v, p)) continue;
            if (skip == 0) {
              proposal_port[v] = p;
              break;
            }
            --skip;
          }
          PADLOCK_ASSERT(proposal_port[v] >= 0);
        }
        return port == proposal_port[v]
                   ? std::optional<Message>(Msg{kPropose, ids[v]})
                   : std::nullopt;
      }
      case 1:  // accept
        return port == accept_port[v] ? std::optional<Message>(Msg{kAccept, 0})
                                      : std::nullopt;
      default:  // confirm happens from the drain path only
        return std::nullopt;
    }
  }

  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    // One pass over the inbox per phase: matched neighbors' one-shot
    // announcements prune ports, and the phase's own message is picked up
    // in the same scan (a port carries at most one message per round).
    switch (phase(round)) {
      case 0: {  // collect proposals
        std::uint64_t best_id = 0;
        for (int p = 0; p < static_cast<int>(inbox.size()); ++p) {
          const auto m = inbox[p];
          if (!m) continue;
          if (m->type == kMatchedFlag) {
            ports.kill(v, p);
          } else if (m->type == kPropose) {
            if (accept_port[v] == -1 || m->id < best_id) {
              accept_port[v] = p;
              best_id = m->id;
            }
          }
        }
        break;
      }
      case 1: {  // proposer side resolves
        bool accepted = false;
        for (int p = 0; p < static_cast<int>(inbox.size()); ++p) {
          const auto m = inbox[p];
          if (!m) continue;
          if (m->type == kMatchedFlag) {
            ports.kill(v, p);
          } else if (m->type == kAccept && p == proposal_port[v]) {
            accepted = true;
          }
        }
        if (accepted &&
            (accept_port[v] == -1 || accept_port[v] == proposal_port[v])) {
          halted.set(v);
          matched.set(v);
          matched_port[v] = proposal_port[v];
        }
        break;
      }
      default: {  // acceptor side resolves; iteration state resets
        bool confirmed = false;
        for (int p = 0; p < static_cast<int>(inbox.size()); ++p) {
          const auto m = inbox[p];
          if (!m) continue;
          if (m->type == kMatchedFlag) {
            ports.kill(v, p);
          } else if (m->type == kConfirm && p == accept_port[v]) {
            confirmed = true;
          }
        }
        if (confirmed) {
          halted.set(v);
          matched.set(v);
          matched_port[v] = accept_port[v];
        }
        proposal_port[v] = -1;
        accept_port[v] = -1;
        break;
      }
    }
    if (!halted.test(v) && ports.live[v] <= 0) halted.set(v);  // retire
  }

  bool done(NodeId v) const { return halted.test(v); }
};

// ---- deterministic color-greedy --------------------------------------------
//
// Engine-v2 state machine of the schedule-by-color greedy: color classes
// take turns (three rounds per turn); in its turn a free node grabs its
// lowest live port, the target accepts the smallest-NodeId grabber, and
// both drain-broadcast the match. Grabbers of one turn are never adjacent
// (proper coloring) and never grabbed themselves, so this reproduces the
// retired serial loop's commit order bit for bit — the golden pins it.
struct ColorGreedyAlg {
  struct Msg {
    std::uint8_t type = 0;
    NodeId grabber = kNoNode;
  };
  using Message = Msg;
  static constexpr std::uint8_t kGrab = 1;
  static constexpr std::uint8_t kAccept = 2;
  static constexpr std::uint8_t kMatchedFlag = 3;

  // Wire layout: type in the low 2 bits, the grabber NodeId in the high 30
  // of one 32-bit word — 4 slab bytes instead of 8. The grabber field only
  // travels on kGrab; the other types unpack it back to kNoNode.
  struct Wire {
    using Packed = std::uint32_t;
    static Packed pack(const Message& m) {
      if (m.type != kGrab) return m.type;
      PADLOCK_ASSERT(m.grabber < (NodeId{1} << 30));
      return (static_cast<std::uint32_t>(m.grabber) << 2) | m.type;
    }
    static Message unpack(Packed p) {
      const auto type = static_cast<std::uint8_t>(p & 3);
      return Msg{type,
                 type == kGrab ? static_cast<NodeId>(p >> 2) : kNoNode};
    }
  };

  const Graph& g;
  const NodeMap<int>& colors;
  int num_colors;
  PortLiveness ports;
  WordBitset halted;             // done(v)
  WordBitset matched;            // halted and holding a matching edge
  WordBitset matched_as_target;  // accepted a grab (vs grabbed itself)
  std::vector<std::int32_t> grab_port;     // this turn, -1 = none
  std::vector<std::int32_t> matched_port;  // -1 until matched

  ColorGreedyAlg(const Graph& g_in, const NodeMap<int>& colors_in,
                 int num_colors_in)
      : g(g_in), colors(colors_in), num_colors(num_colors_in), ports(g_in),
        halted(g_in.num_nodes()),
        matched(g_in.num_nodes()),
        matched_as_target(g_in.num_nodes()),
        grab_port(g_in.num_nodes(), -1),
        matched_port(g_in.num_nodes(), -1) {}

  static int phase(int round) { return (round - 1) % 3; }
  [[nodiscard]] int turn_color(int round) const {
    return static_cast<int>(((round - 1) / 3) %
                            static_cast<long>(num_colors)) + 1;
  }

  std::optional<Message> send(NodeId v, int port, int round) {
    if (matched.test(v)) {
      // Drain round. A target's drain is the accept phase of its turn: it
      // accepts on the winning port and announces everywhere else. A
      // grabber learned of its match from that accept, so its partner is
      // already gone — it only announces.
      if (matched_as_target.test(v) && port == matched_port[v])
        return Msg{kAccept, kNoNode};
      return Msg{kMatchedFlag, kNoNode};
    }
    if (halted.test(v)) return std::nullopt;  // retired
    if (phase(round) != 0 || colors[v] != turn_color(round) ||
        ports.live[v] <= 0) {
      return std::nullopt;
    }
    if (grab_port[v] == -1) {
      for (int p = 0; p < g.degree(v); ++p) {
        if (ports.is_live(v, p)) {
          grab_port[v] = p;
          break;
        }
      }
    }
    return port == grab_port[v] ? std::optional<Message>(Msg{kGrab, v})
                                : std::nullopt;
  }

  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    // One pass per phase: announcements prune ports, the phase's own
    // message rides the same scan.
    const int ph = phase(round);
    std::int32_t best_port = -1;
    NodeId best_grabber = kNoNode;
    bool accepted = false;
    for (int p = 0; p < static_cast<int>(inbox.size()); ++p) {
      const auto m = inbox[p];
      if (!m) continue;
      if (m->type == kMatchedFlag) {
        ports.kill(v, p);
      } else if (ph == 0 && m->type == kGrab) {
        // Targets elect the smallest-NodeId grabber.
        if (best_port == -1 || m->grabber < best_grabber) {
          best_port = p;
          best_grabber = m->grabber;
        }
      } else if (ph == 1 && m->type == kAccept && p == grab_port[v]) {
        accepted = true;
      }
    }
    if (ph == 0 && best_port >= 0) {
      halted.set(v);
      matched.set(v);
      matched_port[v] = best_port;
      matched_as_target.set(v);
    } else if (ph == 1) {
      if (accepted) {
        halted.set(v);
        matched.set(v);
        matched_port[v] = grab_port[v];
      }
      grab_port[v] = -1;
    }
    if (!halted.test(v) && ports.live[v] <= 0) halted.set(v);  // retire
  }

  bool done(NodeId v) const { return halted.test(v); }
};

/// Serial post-pass: fold per-node matched ports into the edge set (each
/// matched edge has exactly one target side in ColorGreedyAlg; for
/// ProposeAcceptAlg both sides recorded the same edge, which is idempotent
/// here).
template <class Alg>
EdgeMap<bool> collect_matching(const Graph& g, const Alg& alg) {
  EdgeMap<bool> in_match(g, false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alg.matched_port[v] >= 0)
      in_match[g.incidence(v, alg.matched_port[v]).edge] = true;
  }
  return in_match;
}

std::int64_t clamp_budget(std::int64_t budget) {
  return std::min<std::int64_t>(budget, std::numeric_limits<int>::max());
}

}  // namespace

namespace {

/// Same w.h.p. iteration budget as before (computed in 64-bit — the old
/// `64 * (2 + (int)n)` overflowed for n ≳ 2^25), three rounds each.
std::int64_t propose_accept_budget(const Graph& g) {
  return clamp_budget(
      3 * 64 * (2 + static_cast<std::int64_t>(g.num_nodes())) + 3);
}

}  // namespace

MatchingResult randomized_matching(const Graph& g, const IdMap& ids,
                                   std::uint64_t seed,
                                   MessageEngineStats* stats) {
  PADLOCK_REQUIRE(ids_valid(g, ids));
  ProposeAcceptAlg alg(g, ids, seed);
  const int rounds =
      run_message_rounds(g, alg, propose_accept_budget(g), stats);
  return MatchingResult{collect_matching(g, alg), rounds};
}

MatchingResult matching_from_coloring(const Graph& g,
                                      const NodeMap<int>& colors,
                                      int num_colors,
                                      MessageEngineStats* stats) {
  PADLOCK_REQUIRE(colors.size() == g.num_nodes());
  PADLOCK_REQUIRE(num_colors >= 1);
  ColorGreedyAlg alg(g, colors, num_colors);
  // At most Δ+2 passes over the color schedule: a free node's candidate
  // set shrinks every pass in which it stays unmatched.
  const std::int64_t budget = clamp_budget(
      3 * static_cast<std::int64_t>(num_colors) *
          (static_cast<std::int64_t>(g.max_degree()) + 3) + 3);
  const int rounds = run_message_rounds(g, alg, budget, stats);
  return MatchingResult{collect_matching(g, alg), rounds};
}


void register_matching_algos(AlgorithmRegistry& r) {
  r.register_algo({
      .name = "propose-accept",
      .problem = "matching",
      .determinism = Determinism::kRandomized,
      .complexity = "O(log n) whp",
      .requires_text = "",
      .precondition = nullptr,
      .solve =
          [](const RunContext& ctx) {
            MessageEngineStats es;
            const auto res =
                randomized_matching(ctx.graph, ctx.ids, ctx.seed, &es);
            AlgoResult out{
                .output = matching_to_labeling(ctx.graph, res.in_match),
                .rounds = RoundReport::uniform(ctx.graph, res.rounds),
                .stats = {}};
            es.surface(out.stats);
            return out;
          },
  });
  r.register_algo({
      .name = "color-greedy",
      .problem = "matching",
      .determinism = Determinism::kDeterministic,
      .complexity = "Theta(log* n) + O(Delta)",
      .requires_text = "loop-free graphs",
      .precondition = graph_loop_free,
      .solve =
          [](const RunContext& ctx) {
            const auto col = linial_color(ctx.graph, ctx.ids, ctx.id_space);
            MessageEngineStats es;
            const auto res = matching_from_coloring(
                ctx.graph, col.colors, ctx.graph.max_degree() + 1, &es);
            AlgoResult out{
                .output = matching_to_labeling(ctx.graph, res.in_match),
                .rounds = RoundReport::uniform(
                    ctx.graph, col.total_rounds() + res.rounds),
                .stats = {}};
            out.stats.set("coloring_rounds", col.total_rounds());
            out.stats.set("greedy_rounds", res.rounds);
            es.surface(out.stats);
            return out;
          },
  });
}

}  // namespace padlock
