// The engine-bound ramp rule shared by bench_micro and
// bench_executor_decision: one word per port per round, an add per
// message, and a halting schedule that halves the frontier every round —
// the Luby/propose-accept decay regime the active-set engine is built
// for. The rule itself does almost no per-node work, so its rows measure
// the executors rather than any algorithm.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace padlock {

struct GeometricHalt {
  using Message = std::uint64_t;
  static constexpr bool kUniformSend = true;  // broadcast each round
  std::vector<std::uint64_t> acc;
  std::vector<std::int32_t> halt_round;
  std::vector<std::uint8_t> halted;

  explicit GeometricHalt(std::size_t n)
      : acc(n, 1), halt_round(n, 1), halted(n, 0) {
    for (std::size_t v = 0; v < n; ++v)
      halt_round[v] = 1 + std::countr_one(static_cast<unsigned>(v));
  }
  std::optional<Message> send(NodeId v, int, int) { return acc[v]; }
  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    std::uint64_t s = acc[v];
    for (const auto& m : inbox)
      if (m) s += *m;
    acc[v] = s + static_cast<std::uint64_t>(round);
    if (round >= halt_round[v]) halted[v] = 1;
  }
  bool done(NodeId v) const { return halted[v] != 0; }
};

}  // namespace padlock
