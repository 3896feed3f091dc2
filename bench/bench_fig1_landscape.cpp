// E1 — Figure 1 of the paper: the complexity landscape of LCLs.
//
// Batched since the ExecutionPlan refactor: the bench declares one plan —
// every registered (problem, algorithm) pair × a cycle/random-cubic menu
// across three decades of n — and run_batch executes the cross-product on
// the thread pool (pass --threads N to pin the worker count; default: all
// cores). Per pair the table shows the cubic instance unless the pair's
// precondition restricts it to cycles. The O(id_space)-rounds color-reduce
// baseline runs the same sizes (on the engine's wake-up calendar its wall
// time is O(n + m + rounds)).
//
// Shapes to observe: the Θ(log* n) rows are essentially flat, the
// randomized O(log n) rows grow gently, the deterministic sinkless row
// climbs with log2(n) while the randomized one stays near-constant — the
// exponential base gap the paper builds on — and the color-reduce row is
// the linear-in-id-space trivial baseline.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

using namespace padlock;

int main(int argc, char** argv) {
  set_threads_from_args(argc, argv);  // default: all cores

  std::printf("E1 / Figure 1 — LCL complexity landscape (measured rounds)\n");
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();

  const int lg_min = 10, lg_max = 14;

  ExecutionPlan plan;
  for (const auto& [problem, algo] : registry.pairs())
    plan.pairs.emplace_back(problem->name, algo->name);
  // Menu order per size: cycle first, cubic second (the render below
  // prefers cubic and falls back to cycle on precondition skips).
  for (int lg = lg_min; lg <= lg_max; ++lg) {
    const std::size_t n = std::size_t{1} << lg;
    plan.graphs.push_back({"cycle", n, 3, static_cast<std::uint64_t>(23 + lg)});
    plan.graphs.push_back(
        {"regular", n, 3, static_cast<std::uint64_t>(23 + lg)});
  }
  plan.options.seed = 41;

  const SweepOutcome swept = run_batch(plan);
  // Poisoned cells are reported and rendered as "!" instead of killing the
  // bench; the exit code still flags them.
  const std::size_t failures = report_failed_rows(swept, "fig1");

  std::vector<std::string> headers{"problem/algorithm", "mode"};
  for (int lg = lg_min; lg <= lg_max; ++lg)
    headers.push_back("n=2^" + std::to_string(lg));
  Table t(std::move(headers));

  const std::size_t menu = plan.graphs.size();
  for (std::size_t pi = 0; pi < plan.pairs.size(); ++pi) {
    const auto& [prob, alg] = plan.pairs[pi];
    std::vector<std::string> row{
        prob + "/" + alg,
        std::string(determinism_name(registry.algo(prob, alg).determinism))};
    for (int lg = lg_min; lg <= lg_max; ++lg) {
      const auto li = static_cast<std::size_t>(2 * (lg - lg_min));
      const SweepRow& cubic = swept.rows[pi * menu + li + 1];
      const SweepRow& cyc = swept.rows[pi * menu + li];
      const SweepRow& cell = cubic.skipped() ? cyc : cubic;
      row.push_back(cell.ok() ? std::to_string(cell.rounds)
                              : (cell.skipped() ? "-" : "!"));
    }
    t.add_row(std::move(row));
  }
  t.print();

  std::printf("(batch: %.1f ms on %d threads; graph cache: %llu hits, "
              "%llu misses)\n",
              swept.wall_ns / 1e6, swept.threads,
              static_cast<unsigned long long>(swept.cache_hits),
              static_cast<unsigned long long>(swept.cache_misses));
  std::printf(
      "\nExpected shapes: log*-band rows flat; randomized O(log n) rows\n"
      "gentle; deterministic sinkless climbs with log2(n) while randomized\n"
      "stays near-constant; color-reduce is the linear baseline.\n");
  return failures == 0 ? 0 : 1;
}
