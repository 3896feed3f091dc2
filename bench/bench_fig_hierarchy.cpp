// E4 — Theorem 11: the hierarchy Π_i with deterministic complexity
// Θ(log^i n) and randomized complexity Θ(log^{i-1} n · log log n).
//
// For i = 1, 2, 3 we solve balanced instances and report the measured
// round counts together with the normalization rounds / log2^i(N): if the
// Θ(log^i) shape holds, the normalized column stays roughly level within
// each i while the raw rounds explode with i. Batched since the
// ExecutionPlan refactor: each (level, base) configuration is one scenario
// task executed across the thread pool.
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

struct Cfg {
  int level;
  std::size_t base;
};

struct Result {
  std::size_t total = 0;
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

  std::printf("E4 / Theorem 11 — the hierarchy Pi_i\n");
  const std::vector<Cfg> cfgs{{1, 256}, {1, 1024}, {1, 4096},
                              {2, 32},  {2, 128},  {2, 512},
                              {3, 8},   {3, 16},   {3, 24}};
  std::vector<Result> results(cfgs.size());
  std::vector<ScenarioTask> tasks;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const Cfg c = cfgs[i];
    tasks.push_back({"pi_" + std::to_string(c.level) +
                         "/base=" + std::to_string(c.base),
                     [i, c, &results, &det_leaf, &rand_leaf](SweepRow& row) {
                       const auto h =
                           build_hierarchy(c.level, c.base, 7 * c.base + c.level);
                       const auto det = solve_hierarchy(h, det_leaf, 13);
                       PADLOCK_REQUIRE(det.leaf_output_sinkless);
                       double rnd_mean = 0;
                       const int kSeeds = 3;
                       for (int sd = 0; sd < kSeeds; ++sd) {
                         const auto rnd =
                             solve_hierarchy(h, rand_leaf, 13 + 17 * sd);
                         PADLOCK_REQUIRE(rnd.leaf_output_sinkless);
                         rnd_mean += rnd.rounds;
                       }
                       rnd_mean /= kSeeds;
                       results[i] = {h.total_nodes(), det.rounds, rnd_mean};
                       row.nodes = h.total_nodes();
                       row.rounds = det.rounds;
                     }});
  }
  const SweepOutcome out = run_scenarios(tasks);

  Table t({"i", "base n", "N", "log2(N)", "det", "rand", "D/R",
           "det/log2^i(N)"});
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const Cfg c = cfgs[i];
    const Result& r = results[i];
    const double lg = std::log2(static_cast<double>(r.total));
    t.add_row({std::to_string(c.level), std::to_string(c.base),
               std::to_string(r.total), fmt(lg, 1), std::to_string(r.det),
               fmt(r.rnd, 1), fmt(r.det / r.rnd, 2),
               fmt(r.det / std::pow(lg, c.level), 3)});
  }
  t.print();
  std::printf("(batch: %.1f ms on %d threads)\n", out.wall_ns / 1e6,
              out.threads);
  std::printf(
      "\nExpected shape: raw deterministic rounds jump by roughly a log2(N)\n"
      "factor per level; the normalized column is comparable across sizes\n"
      "within one level; D/R stays the same Θ(log/loglog) at every level.\n");
  return finish_bench(out, "fig-hierarchy");
}
