// E9 — the derandomization transform behind the Discussion's equation
// D(n) = O(R(n)·ND(n) + R(n)·log² n) (Ghaffari, Harris, Kuhn FOCS 2018),
// made executable: solve MIS and (Δ+1)-coloring deterministically by
// sweeping a network decomposition's color classes.
//
// Three decomposition sources are compared:
//   * Linial–Saks randomized (O(log n), O(log n)) — the baseline R-side;
//   * deterministic greedy ball carving — same quality, but its honest
//     LOCAL round count is not competitive (sequential carving), which is
//     exactly the gap the open ND(n) question asks about;
//   * AGLP (2, O(log n)) ruling sets — the symmetry-breaking primitive
//     under deterministic decompositions, shown for scale.
//
// Batched since the ExecutionPlan refactor: each instance size is one
// scenario task (computing both decomposition sweeps, sharing the graph)
// executed across the thread pool.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algo/carving.hpp"
#include "algo/derandomize.hpp"
#include "algo/ruling_set.hpp"
#include "core/graph_cache.hpp"
#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "lcl/problems/coloring.hpp"
#include "lcl/problems/mis.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

using namespace padlock;

namespace {

struct SweepPair {
  // One entry per decomposition source: {rand-LS, det-carve}.
  int colors[2] = {0, 0};
  int radius[2] = {0, 0};
  int decomp_rounds[2] = {0, 0};
  int sweep_rounds[2] = {0, 0};
  int total_rounds[2] = {0, 0};
};

struct RulingResult {
  int rounds = 0;
  int beta = 0;
};

}  // namespace

int main(int argc, char** argv) {
  set_threads_from_args(argc, argv);  // default: all cores

  const int a_min = 8, a_max = 13;
  const int b_min = 8, b_max = 14;
  std::vector<SweepPair> sweeps(static_cast<std::size_t>(a_max - a_min) + 1);
  std::vector<RulingResult> rulings(static_cast<std::size_t>(b_max - b_min) +
                                    1);

  std::vector<ScenarioTask> tasks;
  for (int lg = a_min; lg <= a_max; ++lg) {
    tasks.push_back(
        {"derand/mis-sweep/n=2^" + std::to_string(lg),
         [lg, a_min, &sweeps](SweepRow& row) {
           const std::size_t n = std::size_t{1} << lg;
           // "regular" through the sweep-wide cache (shared across
           // repeats of this scenario).
           const auto g_ptr = GraphCache::instance().get_or_build(
               "regular", n, 3, static_cast<std::uint64_t>(171 + lg));
           const Graph& g = *g_ptr;
           const IdMap ids = shuffled_ids(g, lg);
           const Decomposition rnd = network_decomposition(g, ids, 29 + lg);
           const Decomposition det = carving_decomposition(g, ids);
           SweepPair& out = sweeps[static_cast<std::size_t>(lg - a_min)];
           for (int src = 0; src < 2; ++src) {
             const Decomposition& d = src == 0 ? rnd : det;
             const auto res = solve_by_decomposition(g, d, mis_completion(ids));
             NodeMap<bool> in_set(g, false);
             for (NodeId v = 0; v < g.num_nodes(); ++v)
               in_set[v] = res.output[v] == 1;
             PADLOCK_REQUIRE(is_mis(g, in_set));
             out.colors[src] = d.num_colors;
             out.radius[src] = d.max_cluster_radius;
             out.decomp_rounds[src] = d.rounds;
             out.sweep_rounds[src] = res.sweep_rounds;
             out.total_rounds[src] = res.rounds;
           }
           row.nodes = n;
           row.rounds = out.total_rounds[0];
         }});
  }
  for (int lg = b_min; lg <= b_max; ++lg) {
    tasks.push_back(
        {"derand/aglp-ruling/n=2^" + std::to_string(lg),
         [lg, b_min, &rulings](SweepRow& row) {
           const std::size_t n = std::size_t{1} << lg;
           const auto g_ptr = GraphCache::instance().get_or_build(
               "regular", n, 3, static_cast<std::uint64_t>(271 + lg));
           const Graph& g = *g_ptr;
           const auto r = ruling_set_aglp(g, shuffled_ids(g, lg), n);
           PADLOCK_REQUIRE(ruling_set_independent(g, r.in_set, 2));
           rulings[static_cast<std::size_t>(lg - b_min)] = {
               r.rounds, r.domination_radius};
           row.nodes = n;
           row.rounds = r.rounds;
         }});
  }
  const SweepOutcome out = run_scenarios(tasks);

  std::printf(
      "E9 — derandomization by network decomposition (Discussion, GHK'18)\n\n"
      "(a) sweep cost on top of each decomposition, MIS on random cubic\n");
  Table a({"n", "src", "colors", "radius", "decomp rounds", "sweep rounds",
           "total", "valid"});
  for (int lg = a_min; lg <= a_max; ++lg) {
    const SweepPair& r = sweeps[static_cast<std::size_t>(lg - a_min)];
    for (int src = 0; src < 2; ++src) {
      a.add_row({std::to_string(std::size_t{1} << lg),
                 src == 0 ? "rand-LS" : "det-carve",
                 std::to_string(r.colors[src]), std::to_string(r.radius[src]),
                 std::to_string(r.decomp_rounds[src]),
                 std::to_string(r.sweep_rounds[src]),
                 std::to_string(r.total_rounds[src]), "yes"});
    }
  }
  a.print();

  std::printf("\n(b) AGLP deterministic (2, O(log n)) ruling sets\n");
  Table b({"n", "log2(n)", "rounds", "beta (measured)", "2*log2(n) bound"});
  for (int lg = b_min; lg <= b_max; ++lg) {
    const RulingResult& r = rulings[static_cast<std::size_t>(lg - b_min)];
    b.add_row({std::to_string(std::size_t{1} << lg), std::to_string(lg),
               std::to_string(r.rounds), std::to_string(r.beta),
               std::to_string(2 * (lg + 1))});
  }
  b.print();
  const GraphCacheStats cache = GraphCache::instance().stats();
  std::printf("(batch: %.1f ms on %d threads; graph cache: %llu hits, "
              "%llu misses)\n",
              out.wall_ns / 1e6, out.threads,
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));
  std::printf(
      "\nExpected shapes: sweep rounds ≈ colors × radius = O(log² n) over\n"
      "the randomized decomposition (the R·log² n term of GHK); the\n"
      "deterministic carving matches the *quality* but its decomposition\n"
      "rounds blow up with n — the locality of deterministic decomposition\n"
      "(ND(n)) is the bottleneck, exactly the paper's open question. AGLP\n"
      "beta stays under 2 log2 n at O(log n) rounds.\n");
  return finish_bench(out, "fig-derandomization");
}
