// The paper's construction end to end: build Π_2 = pad(sinkless
// orientation), solve it deterministically and randomized, verify the
// full Π' output, and display the round accounting of Lemma 4.
//
//   $ ./padded_hierarchy [base_nodes]
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "core/hierarchy.hpp"
#include "lcl/problems/sinkless_orientation.hpp"
#include "support/parse.hpp"

using namespace padlock;

int main(int argc, char** argv) {
  std::size_t base = 128;
  if (argc > 1) {
    const std::optional<long long> parsed =
        parse_integer(argv[1], 1, 1LL << 26);
    if (!parsed) {
      std::fprintf(stderr,
                   "usage: padded_hierarchy [base_nodes]; got '%s'\n",
                   argv[1]);
      return 2;
    }
    base = static_cast<std::size_t>(*parsed);
  }
  const auto h = build_hierarchy(2, base, 7);
  std::printf(
      "Pi_2 instance: base graph %zu nodes -> padded graph %zu nodes "
      "(balanced, f = sqrt)\n",
      h.base.num_nodes(), h.total_nodes());

  // Full Π' solve with explicit diagnostics.
  const auto& inst = h.padded.back().instance;
  const IdMap ids = shuffled_ids(inst.graph, 11);
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  const AlgoSpec& det =
      registry.algo("sinkless-orientation", "short-cycle-det");
  const AlgoSpec& rnd = registry.algo("sinkless-orientation", "propose-repair");
  const auto res = solve_pi_prime(inst, det, ids, h.total_nodes());
  std::printf(
      "Lemma 4 pipeline: verifier %d rounds; contracted to %zu virtual "
      "nodes / %zu virtual edges;\n  inner sinkless solve %d rounds; gadget "
      "stretch %d; total %d rounds\n",
      res.verifier_rounds, res.virtual_nodes, res.virtual_edges,
      res.inner_rounds, res.stretch, res.report.rounds);

  const SinklessOrientation pi;
  const auto chk = check_pi_prime(inst, pi, res.output);
  std::printf("Pi' checker (constraints 1-6 of §3.3): %s\n",
              chk.ok ? "valid" : "INVALID");

  // The headline comparison through the hierarchy driver.
  const auto d = solve_hierarchy(h, det, 5);
  const auto r = solve_hierarchy(h, rnd, 5);
  std::printf(
      "\ndeterministic: leaf %d rounds -> total %d rounds\n"
      "randomized:    leaf %d rounds -> total %d rounds\n"
      "Both pay the same Θ(log N) stretch per simulated round, so the base\n"
      "gap (Θ(log) vs Θ(loglog)) survives as Θ(log²) vs Θ(log·loglog).\n",
      d.leaf_rounds, d.rounds, r.leaf_rounds, r.rounds);
  return chk.ok ? 0 : 1;
}
