// E5 — §3's balance claim: "a different balance between the size of G and
// the depth of each gadget will not result in a harder instance".
//
// Fixed total size N: sweep the gadget height h and set the base size to
// N / gadget_size(h), so the split exponent beta = log(base)/log(N) moves
// from gadget-heavy (small beta) to base-heavy (large beta). Deterministic
// rounds ≈ T_det(base) · stretch(gadget) + V: the product of two factors
// whose logs sum to log N is maximized at the balanced split — up to
// additive constants in T_det, which at bench sizes nudge the measured
// peak slightly below beta = 1/2: with x = log(base), L = log N and
// T_det = c·x + a, the product (c·x + a)·(L − x) peaks at
// x = L/2 − a/(2c). Batched since the ExecutionPlan refactor: each height
// is one scenario task executed across the thread pool.
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
  std::size_t base_n = 0;
  double beta = 0;
  std::size_t total = 0;
  int stretch = 0;
  int det = 0;
  double rnd = 0;
};

}  // namespace

int main(int argc, char** argv) {
  set_threads_from_args(argc, argv);  // default: all cores
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  const AlgoSpec& det_leaf =
      registry.algo("sinkless-orientation", "short-cycle-det");
  const AlgoSpec& rand_leaf =
      registry.algo("sinkless-orientation", "propose-repair");

  std::printf("E5 / §3 — padding balance ablation (target N ~ 1.3e5)\n");
  const double target = 1.3e5;
  const std::vector<int> heights{12, 10, 8, 7, 6, 5, 4};
  std::vector<Result> results(heights.size());
  std::vector<ScenarioTask> tasks;
  for (std::size_t i = 0; i < heights.size(); ++i) {
    const int h = heights[i];
    tasks.push_back(
        {"balance/h=" + std::to_string(h),
         [i, h, target, &results, &det_leaf, &rand_leaf](SweepRow& row) {
           const auto gsize = gadget_size(3, h);
           const auto base = std::max<std::size_t>(
               8, static_cast<std::size_t>(target / static_cast<double>(gsize)));
           const auto hier = build_hierarchy_with_heights(2, base, {h}, 1234 + h);
           const auto det = solve_hierarchy(hier, det_leaf, 5);
           PADLOCK_REQUIRE(det.leaf_output_sinkless);
           double rnd_mean = 0;
           const int kSeeds = 3;
           for (int sd = 0; sd < kSeeds; ++sd) {
             const auto rnd = solve_hierarchy(hier, rand_leaf, 5 + 11 * sd);
             PADLOCK_REQUIRE(rnd.leaf_output_sinkless);
             rnd_mean += rnd.rounds;
           }
           rnd_mean /= kSeeds;
           const double n = static_cast<double>(hier.total_nodes());
           results[i] = {hier.base.num_nodes(),
                         std::log2(static_cast<double>(hier.base.num_nodes())) /
                             std::log2(n),
                         hier.total_nodes(), det.stretch_per_level[0],
                         det.rounds, rnd_mean};
           row.nodes = hier.total_nodes();
           row.rounds = det.rounds;
         }});
  }
  const SweepOutcome out = run_scenarios(tasks);

  Table t({"gadget h", "base n", "beta", "N", "stretch", "det rounds",
           "rand rounds (avg)"});
  for (std::size_t i = 0; i < heights.size(); ++i) {
    const Result& r = results[i];
    t.add_row({std::to_string(heights[i]), std::to_string(r.base_n),
               fmt(r.beta, 2), std::to_string(r.total),
               std::to_string(r.stretch), std::to_string(r.det),
               fmt(r.rnd, 1)});
  }
  t.print();
  std::printf("(batch: %.1f ms on %d threads)\n", out.wall_ns / 1e6,
              out.threads);
  std::printf(
      "\nExpected shape: rounds fall off sharply toward base-heavy splits\n"
      "(beta -> 1: stretch collapses) and level off toward gadget-heavy\n"
      "ones; the hard region sits around the balanced split, where Lemma 5\n"
      "places its lower-bound instances (f(x) = sqrt(x)). Additive O(1)\n"
      "terms in the base solver shift the finite-size peak slightly left\n"
      "of beta = 0.5.\n");
  return finish_bench(out, "fig-balance-ablation");
}
