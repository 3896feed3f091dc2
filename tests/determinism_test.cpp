// The bit-identical guarantee of the thread-pooled execution path: for
// every registered (problem, algorithm) pair, a parallel run (threads=4)
// must produce exactly the labelings, round reports, and check results of
// the serial run (threads=1) — and the parallel checker must reproduce the
// serial violation list, order and cap included, on invalid solutions.
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "lcl/problems/sinkless_orientation.hpp"
#include "local/engine.hpp"
#include "support/thread_pool.hpp"

namespace padlock {
namespace {

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = exec_context(); }
  void TearDown() override { exec_context() = saved_; }

 private:
  ExecContext saved_;
};

void expect_same_check(const CheckResult& a, const CheckResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.total_violations, b.total_violations);
  EXPECT_EQ(a.truncated, b.truncated);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].site, b.violations[i].site);
    EXPECT_EQ(a.violations[i].node, b.violations[i].node);
    EXPECT_EQ(a.violations[i].edge, b.violations[i].edge);
  }
}

TEST_F(DeterminismTest, EveryRegisteredPairSerialEqualsParallel) {
  const Graph cubic = build::random_regular_simple(96, 3, 17);
  const Graph cyc = build::cycle(96);
  for (const auto& [problem, algo] : AlgorithmRegistry::instance().pairs()) {
    const Graph* g = &cubic;
    if (algo->precondition && !algo->precondition(*g)) g = &cyc;
    ASSERT_TRUE(!algo->precondition || algo->precondition(*g))
        << problem->name << "/" << algo->name;

    RunOptions opts;
    opts.seed = 23;

    exec_context().threads = 1;
    const SolveOutcome serial = run(*problem, *algo, *g, opts);
    exec_context().threads = 4;
    const SolveOutcome parallel = run(*problem, *algo, *g, opts);

    SCOPED_TRACE(problem->name + "/" + algo->name);
    EXPECT_TRUE(serial.output == parallel.output);
    EXPECT_TRUE(serial.rounds == parallel.rounds);
    EXPECT_EQ(serial.stats.entries, parallel.stats.entries);
    expect_same_check(serial.verification, parallel.verification);
  }
}

TEST_F(DeterminismTest, ShortCycleDetSerialEqualsParallelAboveGrain) {
  // At 2^12 nodes short-cycle-det's per-node loops (shortest cycle and
  // claim, claims toward T2, certificate radii) split into many chunks at
  // threads=4, so each pooled write path runs concurrently.
  const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
  const ProblemSpec& problem = reg.problem("sinkless-orientation");
  const AlgoSpec& algo = reg.algo("sinkless-orientation", "short-cycle-det");
  for (const std::string family : {"regular", "bounded"}) {
    const Graph g = build::family(family, 4096, 3, 9);
    RunOptions opts;
    opts.seed = 9;
    exec_context().threads = 1;
    const SolveOutcome serial = run(problem, algo, g, opts);
    exec_context().threads = 4;
    const SolveOutcome parallel = run(problem, algo, g, opts);

    SCOPED_TRACE(family);
    EXPECT_TRUE(serial.verification.ok);
    EXPECT_TRUE(serial.output == parallel.output);
    EXPECT_TRUE(serial.rounds == parallel.rounds);  // per-node rounds too
    EXPECT_EQ(serial.stats.entries, parallel.stats.entries);
  }
}

TEST_F(DeterminismTest, GatherEngineSerialEqualsParallel) {
  const Graph g = build::random_regular_simple(200, 3, 5);
  NodeMap<int> out_serial(g, 0), out_parallel(g, 0);
  const auto rule = [&g](NodeMap<int>& out) {
    return [&g, &out](LocalView& view, NodeId v) {
      view.extend(1 + static_cast<int>(v % 3));  // >= 1: port reads need it
      int sum = 0;
      for (int p = 0; p < view.degree(v); ++p)
        sum += static_cast<int>(view.neighbor(v, p));
      out[v] = sum;
      (void)g;
    };
  };

  exec_context().threads = 1;
  const RoundReport serial = run_gather(g, rule(out_serial));
  exec_context().threads = 4;
  const RoundReport parallel = run_gather(g, rule(out_parallel));

  EXPECT_TRUE(serial == parallel);
  EXPECT_EQ(serial.rounds, 3);  // max over 1 + v % 3
  EXPECT_TRUE(out_serial == out_parallel);
}

TEST_F(DeterminismTest, CheckerViolationListIdenticalUnderCap) {
  // The all-empty labeling violates sinkless orientation everywhere, so a
  // small cap exercises ordering, counting, and truncation.
  const Graph g = build::random_regular(128, 3, 7);
  const NeLabeling input(g);
  const NeLabeling empty_output(g);
  const SinklessOrientation lcl;

  for (const std::size_t cap : {std::size_t{0}, std::size_t{3},
                                std::size_t{16}, std::size_t{100000}}) {
    exec_context().threads = 1;
    const CheckResult serial = check_ne_lcl(g, lcl, input, empty_output, cap);
    exec_context().threads = 4;
    const CheckResult parallel =
        check_ne_lcl(g, lcl, input, empty_output, cap);
    SCOPED_TRACE("cap=" + std::to_string(cap));
    expect_same_check(serial, parallel);
    EXPECT_FALSE(serial.ok);
  }
}

TEST_F(DeterminismTest, RunBatchRowsIdenticalAcrossThreadCounts) {
  ExecutionPlan plan;
  plan.pairs = {{"mis", "luby"}, {"sinkless-orientation", "propose-repair"}};
  plan.graphs = {{"cycle", 64, 3, 3}, {"regular", 64, 3, 3}};
  plan.options.seed = 5;
  plan.repeat = 2;

  plan.threads = 1;
  const SweepOutcome serial = run_batch(plan);
  plan.threads = 4;
  const SweepOutcome parallel = run_batch(plan);

  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  ASSERT_EQ(serial.rows.size(), 4u);
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const SweepRow& a = serial.rows[i];
    const SweepRow& b = parallel.rows[i];
    EXPECT_EQ(a.problem, b.problem);
    EXPECT_EQ(a.algo, b.algo);
    EXPECT_EQ(a.graph.family, b.graph.family);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.note, b.note);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.stats.entries, b.stats.entries);
  }
  EXPECT_TRUE(serial.all_ok());
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 4);
}

TEST_F(DeterminismTest, RunBatchSkipsIncompatiblePairs) {
  ExecutionPlan plan;
  // cole-vishkin needs an oriented cycle; the cubic instance must skip.
  plan.pairs = {{"3-coloring", "cole-vishkin"}};
  plan.graphs = {{"cycle", 32, 3, 1}, {"regular", 32, 3, 1}};
  const SweepOutcome out = run_batch(plan);
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_FALSE(out.rows[0].skipped());
  EXPECT_TRUE(out.rows[1].skipped());
  EXPECT_TRUE(out.all_ok());  // skipped rows do not count as failures
}

}  // namespace
}  // namespace padlock
