// E8 (extension) — Theorem 1 with a different (d, Δ)-gadget family.
//
// The theorem is stated for *any* (d, Δ)-gadget family; §4 instantiates it
// with d = log. This bench instantiates it with the path family (d(n) = n):
// padding sinkless orientation with path gadgets of ≈ √N nodes yields
//
//     deterministic  Θ(√N · log √N)       (stretch √N × leaf log)
//     randomized     Θ(√N · log log √N)
//
// versus the tree family's Θ(log² N) / Θ(log N log log N) at the same N.
// The D/R ratio is the *same* Θ(log n / log log n) in both families — the
// paper's observation that all known gaps share this ratio.
//
// Batched since the ExecutionPlan refactor: each (base size, family) pair
// is one scenario task executed across the thread pool.
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/graph_cache.hpp"
#include "core/hierarchy.hpp"
#include "core/runner.hpp"
#include "gadget/path_gadget.hpp"
#include "graph/builders.hpp"
#include "lcl/problems/sinkless_orientation.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

using namespace padlock;

namespace {

struct Run {
  int det = 0;
  double rnd = 0;
  std::size_t nodes = 0;
  int stretch = 0;
};

Run run_family(const Graph& base, bool path_family, int delta,
               std::size_t gadget_target) {
  const NeLabeling base_input(base);
  const PaddedBuild pb =
      path_family
          ? build_padded_instance_path(base, base_input, delta,
                                       path_length_for_size(delta,
                                                            gadget_target))
          : build_padded_instance(base, base_input, delta,
                                  height_for_gadget_nodes(delta,
                                                          gadget_target));
  const IdMap ids = shuffled_ids(pb.instance.graph, 11);
  const std::size_t n = pb.instance.graph.num_nodes();

  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  Run run;
  run.nodes = n;
  const auto det = solve_pi_prime(
      pb.instance,
      registry.algo("sinkless-orientation", "short-cycle-det"), ids, n);
  run.det = det.report.rounds;
  run.stretch = det.stretch;
  const SinklessOrientation pi;
  PADLOCK_REQUIRE(check_pi_prime(pb.instance, pi, det.output).ok);

  const int kSeeds = 3;
  for (int s = 0; s < kSeeds; ++s) {
    const auto rnd = solve_pi_prime(
        pb.instance,
        registry.algo("sinkless-orientation", "propose-repair"), ids, n,
        77 + 13 * s);
    PADLOCK_REQUIRE(check_pi_prime(pb.instance, pi, rnd.output).ok);
    run.rnd += rnd.report.rounds;
  }
  run.rnd /= kSeeds;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  set_threads_from_args(argc, argv);  // default: all cores

  std::printf(
      "E8 / Theorem 1 generality — padding sinkless orientation with the\n"
      "path (linear, Δ) family vs the tree (log, Δ) family, balanced split\n"
      "(base √N, gadgets √N):\n\n");

  const std::vector<std::size_t> bases{32, 64, 128, 256};
  // results[i][0] = tree family, results[i][1] = path family.
  std::vector<std::array<Run, 2>> results(bases.size());
  std::vector<ScenarioTask> tasks;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    for (const bool path : {false, true}) {
      const std::size_t base = bases[i];
      tasks.push_back({std::string(path ? "path" : "tree") +
                           "/base=" + std::to_string(base),
                       [i, base, path, &results](SweepRow& row) {
                         // Same base instance for the tree and the path
                         // family: the sweep-wide cache builds it once
                         // (family "high-girth" at these sizes pins the
                         // girth floor to 6, matching the old direct call).
                         const auto g_ptr = GraphCache::instance().get_or_build(
                             "high-girth", base, 3,
                             static_cast<std::uint64_t>(31 + base));
                         const Graph& g = *g_ptr;
                         // Balanced: gadget size ≈ base size.
                         const Run r = run_family(g, path, 3, base);
                         results[i][path ? 1 : 0] = r;
                         row.nodes = r.nodes;
                         row.rounds = r.det;
                       }});
    }
  }
  const SweepOutcome out = run_scenarios(tasks);

  Table t({"base n", "N tree", "tree det", "tree rnd", "N path", "path det",
           "path rnd", "path/tree det", "sqrtN*logN/log2N"});
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const Run& tree = results[i][0];
    const Run& path = results[i][1];
    const double lgN = std::log2(static_cast<double>(path.nodes));
    const double pred = std::sqrt(static_cast<double>(path.nodes)) / lgN;
    t.add_row({std::to_string(bases[i]), std::to_string(tree.nodes),
               std::to_string(tree.det), fmt(tree.rnd, 1),
               std::to_string(path.nodes), std::to_string(path.det),
               fmt(path.rnd, 1),
               fmt(static_cast<double>(path.det) / tree.det, 2),
               fmt(pred, 2)});
  }
  t.print();
  const GraphCacheStats cache = GraphCache::instance().stats();
  std::printf("(batch: %.1f ms on %d threads; graph cache: %llu hits, "
              "%llu misses)\n",
              out.wall_ns / 1e6, out.threads,
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));
  std::printf(
      "\nExpected shape: tree rounds grow polylogarithmically, path rounds\n"
      "polynomially (stretch Θ(√N) instead of Θ(log N)); the path/tree\n"
      "round ratio tracks √N / log N (last column). Within each family the\n"
      "deterministic column stays above the randomized one by the same\n"
      "Θ(log/loglog) leaf gap.\n");
  return finish_bench(out, "fig-path-padding");
}
