// Figure 1 of the paper, asserted: where each registered pair sits in the
// complexity landscape of LCLs (Theta(log* n), Theta(log n), or the linear
// baseline), checked on one run_batch plan instead of printed as a table.
//
// The plan is every registered pair on {cycle, regular, high-girth} at
// {2^10, 2^12, 2^14} nodes with shuffled ids and seed 41, the same rows as
//
//   padlock_cli sweep --family cycle,regular,high-girth
//       --sizes 1024,4096,16384 --seed 41
//
// Only shapes that held at every seed tried (1, 2, 3, 7, 23, 41) are
// asserted:
//   * every row is ok, or skipped by its precondition (cole-vishkin runs
//     only on cycles, in cole_vishkin_iterations(n) + 3 rounds);
//   * ruling-set/aglp-bit-split takes log2 n + 1 rounds, one per bit of
//     the largest id n (11, 13, 15), and its domination radius is at most
//     2 log2 n;
//   * coloring/color-reduce takes exactly n rounds: the linear baseline;
//   * sinkless-orientation/short-cycle-det on regular and high-girth never
//     takes fewer rounds as n grows, and takes strictly more at 2^14 than
//     at 2^10 (8-9 rounds against 11).
//
// Two claims of the old figure prose are not asserted, because measurement
// does not support them:
//   * The log*-band rows are not flat at these sizes. At seed 41 on
//     regular, edge-coloring/line-graph-linial goes from 47 to 58 rounds
//     between 2^10 and 2^14, and dist2-coloring/power-linial reads 242, 370
//     and 326.
//   * "Randomized sinkless orientation stays below deterministic" fails from
//     2^17 nodes on: propose-repair takes 6 rounds up to 2^16 but 18 at 2^17
//     (seed 3) and at 2^18 and 2^20 (seeds 1-3), while short-cycle-det
//     takes 12 at 2^16. That claim belongs to the separation fit test of
//     ROADMAP item 5, which must fail until the repair accounting is
//     settled; these sizes are not chosen to hide it.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <string>
#include <vector>

#include "algo/cole_vishkin.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"

namespace padlock {
namespace {

constexpr std::uint64_t kSeed = 41;
const std::vector<std::string> kFamilies{"cycle", "regular", "high-girth"};
const std::vector<std::size_t> kSizes{1024, 4096, 16384};

// The plan runs once per test binary; every test reads its rows.
const SweepOutcome& figure1() {
  static const SweepOutcome outcome = [] {
    ExecutionPlan plan;  // empty pairs: every registered pair
    for (const std::string& family : kFamilies)
      for (const std::size_t n : kSizes)
        plan.graphs.push_back({family, n, 3, kSeed});
    plan.options.seed = kSeed;
    plan.options.ids = IdStrategy::kShuffled;
    return run_batch(plan);
  }();
  return outcome;
}

// The rows of one pair on one family, in kSizes order.
std::vector<const SweepRow*> rows(const std::string& problem,
                                  const std::string& algo,
                                  const std::string& family) {
  std::vector<const SweepRow*> out;
  for (const std::size_t n : kSizes) {
    for (const SweepRow& row : figure1().rows) {
      if (row.problem == problem && row.algo == algo &&
          row.graph.family == family && row.graph.nodes == n) {
        out.push_back(&row);
      }
    }
  }
  EXPECT_EQ(out.size(), kSizes.size()) << problem << '/' << algo << " @"
                                       << family;
  return out;
}

TEST(Figure1, EveryRowIsOkOrSkippedByItsPrecondition) {
  const std::size_t pairs = AlgorithmRegistry::instance().pairs().size();
  ASSERT_EQ(figure1().rows.size(), pairs * kFamilies.size() * kSizes.size());
  for (const SweepRow& row : figure1().rows) {
    const bool cole_vishkin = row.algo == "cole-vishkin";
    const bool on_cycle = row.graph.family == "cycle";
    const std::string cell = row.problem + "/" + row.algo + " @" +
                             row.graph.family + " n=" +
                             std::to_string(row.graph.nodes) + ": " +
                             status_cell(row);
    if (cole_vishkin && !on_cycle) {
      EXPECT_TRUE(row.skipped()) << cell;
    } else {
      EXPECT_TRUE(row.ok()) << cell;
    }
  }
  for (const SweepRow* row : rows("3-coloring", "cole-vishkin", "cycle")) {
    EXPECT_EQ(row->rounds, cole_vishkin_iterations(row->nodes) + 3)
        << "n=" << row->nodes;
  }
}

TEST(Figure1, RulingSetTakesOneRoundPerIdBitWithinTwoLogN) {
  for (const std::string& family : kFamilies) {
    for (const SweepRow* row : rows("ruling-set", "aglp-bit-split", family)) {
      ASSERT_TRUE(row->ok()) << family;
      const int log2_n = std::bit_width(row->nodes) - 1;
      EXPECT_EQ(row->rounds, log2_n + 1) << family << " n=" << row->nodes;
      const std::int64_t radius = row->stats.get_or("domination_radius", -1);
      EXPECT_GE(radius, 0) << family << " n=" << row->nodes;
      EXPECT_LE(radius, 2 * log2_n) << family << " n=" << row->nodes;
    }
  }
}

TEST(Figure1, ColorReduceIsTheLinearBaseline) {
  for (const std::string& family : kFamilies) {
    for (const SweepRow* row : rows("coloring", "color-reduce", family)) {
      ASSERT_TRUE(row->ok()) << family;
      EXPECT_EQ(static_cast<std::size_t>(row->rounds), row->nodes)
          << family;
    }
  }
}

TEST(Figure1, DeterministicSinklessClimbsWithN) {
  for (const std::string family : {"regular", "high-girth"}) {
    const auto r = rows("sinkless-orientation", "short-cycle-det", family);
    ASSERT_EQ(r.size(), kSizes.size());
    for (std::size_t i = 1; i < r.size(); ++i) {
      EXPECT_GE(r[i]->rounds, r[i - 1]->rounds)
          << family << " n=" << r[i - 1]->nodes << " -> " << r[i]->nodes;
    }
    EXPECT_GT(r.back()->rounds, r.front()->rounds) << family;
  }
}

}  // namespace
}  // namespace padlock
