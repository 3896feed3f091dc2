// E2 — Theorem 6 / §4.5: the gadget verifier V runs in O(log n) rounds and
// produces locally checkable proofs of error on invalid gadgets.
//
// Sweep gadget heights; for every height report the gadget size, V's round
// count on the valid gadget (should track log2(size)), and across the whole
// fault library: how many faults were detected and how many produced a
// Ψ- and Ψ_G-valid proof (both must be all of them). Batched since the
// ExecutionPlan refactor: each (delta, height) cell is one scenario task
// executed across the thread pool.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "gadget/faults.hpp"
#include "gadget/ne_refinement.hpp"
#include "gadget/verifier.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

using namespace padlock;

namespace {

struct Result {
  int delta = 0;
  int height = 0;
  std::size_t nodes = 0;
  int valid_rounds = 0;
  int faults = 0;
  int detected = 0;
  int psi_ok = 0;
  int psig_ok = 0;
};

}  // namespace

int main(int argc, char** argv) {
  set_threads_from_args(argc, argv);  // default: all cores

  std::printf("E2 / Theorem 6 — gadget verifier rounds and proof validity\n");

  std::vector<std::pair<int, int>> cells;
  for (const int delta : {3, 4})
    for (int height = 4; height <= 11; height += (delta == 3 ? 1 : 2))
      cells.emplace_back(delta, height);

  std::vector<Result> results(cells.size());
  std::vector<ScenarioTask> tasks;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto [delta, height] = cells[i];
    tasks.push_back(
        {"gadget/d=" + std::to_string(delta) + "/h=" + std::to_string(height),
         [i, delta, height, &results](SweepRow& row) {
           const auto inst = build_gadget(delta, height);
           const auto valid = run_gadget_verifier(inst.graph, inst.labels);
           PADLOCK_REQUIRE(!valid.found_error);

           Result r{delta, height, inst.graph.num_nodes(),
                    valid.report.rounds};
           for (const GadgetFault f : all_gadget_faults()) {
             for (const std::uint64_t seed : {1ull, 2ull}) {
               ++r.faults;
               const auto bad = inject_fault(inst, f, seed);
               const auto res = run_gadget_verifier(bad.graph, bad.labels);
               if (res.found_error) ++r.detected;
               if (check_psi(bad.graph, bad.labels, res.output).ok) ++r.psi_ok;
               const auto ne = run_gadget_verifier_ne(bad.graph, bad.labels);
               if (check_psi_ne(bad.graph, bad.labels, ne.output).ok)
                 ++r.psig_ok;
             }
           }
           results[i] = r;
           row.nodes = r.nodes;
           row.rounds = r.valid_rounds;
         }});
  }
  const SweepOutcome out = run_scenarios(tasks);

  Table t({"delta", "height", "nodes", "log2(n)", "V rounds (valid)",
           "faults", "detected", "psi-proof ok", "psiG-proof ok"});
  for (const Result& r : results) {
    t.add_row({std::to_string(r.delta), std::to_string(r.height),
               std::to_string(r.nodes),
               fmt(std::log2(static_cast<double>(r.nodes)), 1),
               std::to_string(r.valid_rounds), std::to_string(r.faults),
               std::to_string(r.detected), std::to_string(r.psi_ok),
               std::to_string(r.psig_ok)});
  }
  t.print();
  std::printf("(batch: %.1f ms on %d threads)\n", out.wall_ns / 1e6,
              out.threads);
  std::printf(
      "\nExpected shape: V rounds grow linearly in the height, i.e.\n"
      "O(log n) in the gadget size; every fault detected, every proof "
      "valid.\n");
  return finish_bench(out, "fig-gadget-verify");
}
