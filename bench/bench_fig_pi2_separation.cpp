// E3 — the headline result (Theorem 1 applied once, §5): Π_2 has
// deterministic complexity Θ(log² n) and randomized complexity
// Θ(log n · log log n); the ratio D/R grows like log n / log log n.
//
// Balanced instances (Lemma 5's worst case, f(x) = ⌊√x⌋): base graph of
// √N nodes padded with gadgets of ≈ √N nodes. Batched since the
// ExecutionPlan refactor: each base size is one scenario task and
// run_scenarios executes them across the thread pool (--threads N pins the
// worker count; default: all cores).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/hierarchy.hpp"
#include "core/runner.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

using namespace padlock;

namespace {

struct Result {
  std::size_t base = 0;
  std::size_t total = 0;
  int stretch = 0;
  int det = 0;
  double rnd = 0;
};

}  // namespace

int main(int argc, char** argv) {
  set_threads_from_args(argc, argv);  // default: all cores

  std::printf(
      "E3 / Theorem 1 + §5 — Pi_2: det Θ(log² N) vs rand Θ(log N loglog N)\n");

  const std::vector<std::size_t> bases{32, 64, 128, 256, 512, 724};
  std::vector<Result> results(bases.size());
  std::vector<ScenarioTask> tasks;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const std::size_t base = bases[i];
    tasks.push_back(
        {"pi2/base=" + std::to_string(base), [i, base, &results](SweepRow& row) {
           const auto h = build_hierarchy(2, base, 101 + base);
           const auto det = solve_hierarchy(h, false, 7);
           PADLOCK_REQUIRE(det.leaf_output_sinkless);
           // The randomized complexity is an expectation; average over seeds.
           double rnd_mean = 0;
           const int kSeeds = 5;
           for (int s = 0; s < kSeeds; ++s) {
             const auto rnd = solve_hierarchy(h, true, 7 + 13 * s);
             PADLOCK_REQUIRE(rnd.leaf_output_sinkless);
             rnd_mean += rnd.rounds;
           }
           rnd_mean /= kSeeds;
           results[i] = {base, h.total_nodes(), det.stretch_per_level[0],
                         det.rounds, rnd_mean};
           row.nodes = h.total_nodes();
           row.rounds = det.rounds;
         }});
  }
  const SweepOutcome out = run_scenarios(tasks);

  Table t({"base n", "N (padded)", "log2(N)", "stretch", "det rounds",
           "rand rounds", "D/R", "log2N/log2log2N"});
  for (const Result& r : results) {
    const double lg = std::log2(static_cast<double>(r.total));
    t.add_row({std::to_string(r.base), std::to_string(r.total), fmt(lg, 1),
               std::to_string(r.stretch), std::to_string(r.det),
               fmt(r.rnd, 1), fmt(r.det / r.rnd, 2),
               fmt(lg / std::log2(lg), 2)});
  }
  t.print();
  std::printf("(batch: %.1f ms on %d threads)\n", out.wall_ns / 1e6,
              out.threads);
  std::printf(
      "\nExpected shape: both columns grow with N (the shared Θ(log N)\n"
      "stretch factor), deterministic faster; the measured D/R ratio climbs\n"
      "with N, tracking the predicted log N / log log N (last column).\n");
  return finish_bench(out, "fig-pi2-separation");
}
