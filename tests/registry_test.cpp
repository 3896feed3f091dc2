// Tests for the unified Runner API: registry enumeration, name-based
// dispatch (including its error paths), and the round-trip guarantee —
// every registered (problem, algorithm) pair, run on every small graph of
// a menu that satisfies its precondition, must produce an outcome its
// problem's checker accepts.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/graph_cache.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "local/ids.hpp"
#include "support/check.hpp"

namespace padlock {
namespace {

struct MenuGraph {
  std::string name;
  Graph graph;
};

std::vector<MenuGraph> small_graph_menu() {
  std::vector<MenuGraph> menu;
  menu.push_back({"cycle-24", build::cycle(24)});
  menu.push_back({"path-17", build::path(17)});
  menu.push_back({"cubic-simple-32", build::random_regular_simple(32, 3, 11)});
  menu.push_back({"torus-4x6", build::torus(4, 6)});
  menu.push_back(
      {"bounded-degree-40", build::random_bounded_degree_simple(40, 4, 0.6, 5)});
  return menu;
}

// ---- enumeration -----------------------------------------------------------

TEST(Registry, LandscapeHasAtLeastTenPairs) {
  const auto pairs = AlgorithmRegistry::instance().pairs();
  EXPECT_GE(pairs.size(), 10u);
}

TEST(Registry, EveryAlgoSolvesARegisteredProblem) {
  const AlgorithmRegistry& r = AlgorithmRegistry::instance();
  for (const AlgoSpec* algo : r.algos()) {
    EXPECT_TRUE(r.has_problem(algo->problem)) << algo->name;
    EXPECT_NO_THROW((void)r.problem(algo->problem));
  }
}

TEST(Registry, ProblemsAreSortedAndNamed) {
  const auto problems = AlgorithmRegistry::instance().problems();
  ASSERT_FALSE(problems.empty());
  for (std::size_t i = 1; i < problems.size(); ++i) {
    EXPECT_LT(problems[i - 1]->name, problems[i]->name);
  }
  for (const ProblemSpec* p : problems) {
    EXPECT_FALSE(p->family.empty()) << p->name;
    EXPECT_TRUE(p->make_lcl != nullptr || p->check != nullptr) << p->name;
  }
}

// ---- the round-trip guarantee ----------------------------------------------

TEST(Registry, RoundTripEveryPairVerifiesOnApplicableGraphs) {
  const AlgorithmRegistry& r = AlgorithmRegistry::instance();
  const auto menu = small_graph_menu();
  for (const auto& [problem, algo] : r.pairs()) {
    int applicable = 0;
    for (const auto& [graph_name, g] : menu) {
      if (algo->precondition && !algo->precondition(g)) continue;
      ++applicable;
      RunOptions opts;
      opts.seed = 7;
      const SolveOutcome outcome = run(*problem, *algo, g, opts);
      EXPECT_TRUE(outcome.verification.ok)
          << problem->name << '/' << algo->name << " on " << graph_name
          << ": " << outcome.verification.total_violations << " violations";
      EXPECT_GE(outcome.rounds.rounds, 0);
      EXPECT_EQ(outcome.rounds.node_rounds.size(), g.num_nodes());
      EXPECT_EQ(outcome.output.node.size(), g.num_nodes());
      EXPECT_EQ(outcome.output.edge.size(), g.num_edges());
    }
    EXPECT_GE(applicable, 1)
        << problem->name << '/' << algo->name
        << " matches no graph of the test menu — unreachable registration";
  }
}

TEST(Registry, RoundTripIsIdStrategyAgnostic) {
  // Deterministic pairs must work for every id assignment (the LOCAL
  // contract); exercise the adversarial and sparse strategies too.
  const AlgorithmRegistry& r = AlgorithmRegistry::instance();
  const Graph g = build::random_regular_simple(32, 3, 3);
  for (const auto& [problem, algo] : r.pairs()) {
    if (algo->determinism != Determinism::kDeterministic) continue;
    if (algo->precondition && !algo->precondition(g)) continue;
    if (algo->name == "color-reduce") continue;  // O(id_space) rounds: sparse
                                                 // ids would take n^3 rounds
    for (const IdStrategy s : {IdStrategy::kSequential, IdStrategy::kSparse,
                               IdStrategy::kAdversarial}) {
      RunOptions opts;
      opts.ids = s;
      opts.seed = 13;
      const SolveOutcome outcome = run(*problem, *algo, g, opts);
      EXPECT_TRUE(outcome.verification.ok)
          << problem->name << '/' << algo->name << " with "
          << id_strategy_name(s) << " ids";
    }
  }
}

TEST(Runner, CheckCanBeDisabled) {
  const Graph g = build::cycle(12);
  RunOptions opts;
  opts.check = false;
  const SolveOutcome outcome = run("3-coloring", "cole-vishkin", g, opts);
  EXPECT_TRUE(outcome.verification.ok);  // default-constructed, not a verdict
  EXPECT_TRUE(outcome.verification.violations.empty());
}

TEST(Runner, StatsSurviveTheTrip) {
  const Graph g = build::random_regular_simple(32, 3, 9);
  const SolveOutcome outcome = run("coloring", "linial", g);
  EXPECT_GE(outcome.stats.get_or("linial_rounds", -1), 0);
  EXPECT_GE(outcome.stats.get_or("reduction_rounds", -1), 0);
  EXPECT_FALSE(outcome.stats.str().empty());
}

// ---- preconditions ---------------------------------------------------------

TEST(Registry, LoopFreePreconditionReadsTheGraphMemo) {
  GraphCache cache;
  // cycle@1 is a single node with a self-loop; regular is simple.
  const Graph looped = *cache.get_or_build("cycle", 1, 3, 0);
  const Graph simple = *cache.get_or_build("regular", 64, 3, 5);
  EXPECT_FALSE(looped.loop_free());
  EXPECT_FALSE(graph_loop_free(looped));
  EXPECT_TRUE(simple.loop_free());
  EXPECT_TRUE(graph_loop_free(simple));

  // A cache hit hands out the same graph, memo included.
  bool hit = false;
  const auto again = cache.get_or_build("cycle", 1, 3, 0, &hit);
  EXPECT_TRUE(hit);
  EXPECT_FALSE(again->loop_free());
  EXPECT_THROW(run("mis", "luby", looped), RegistryError);
}

// ---- the id contract at the runner boundary --------------------------------

TEST(Runner, InvalidIdsThrowBeforeSolveForEveryPair) {
  const auto menu = small_graph_menu();
  for (const auto& [problem, algo] : AlgorithmRegistry::instance().pairs()) {
    const Graph* g = nullptr;
    for (const auto& entry : menu) {
      if (!algo->precondition || algo->precondition(entry.graph)) {
        g = &entry.graph;
        break;
      }
    }
    ASSERT_NE(g, nullptr) << problem->name << '/' << algo->name;
    SCOPED_TRACE(problem->name + "/" + algo->name);

    bool solved = false;
    AlgoSpec spy = *algo;
    spy.solve = [&solved, algo = algo](const RunContext& ctx) {
      solved = true;
      return algo->solve(ctx);
    };
    const std::uint64_t id_space = g->num_nodes();

    IdMap duplicated = sequential_ids(*g);
    duplicated[1] = duplicated[0];
    EXPECT_THROW(run_with_ids(*problem, spy, *g, duplicated, id_space),
                 ContractViolation);
    EXPECT_FALSE(solved);

    IdMap zero = sequential_ids(*g);
    zero[0] = 0;
    EXPECT_THROW(run_with_ids(*problem, spy, *g, zero, id_space),
                 ContractViolation);
    EXPECT_FALSE(solved);

    // The spy does reach solve once the ids are valid.
    (void)run_with_ids(*problem, spy, *g, sequential_ids(*g), id_space);
    EXPECT_TRUE(solved);
  }
}

// ---- dispatch error paths --------------------------------------------------

TEST(RunnerDispatch, UnknownProblemThrows) {
  const Graph g = build::cycle(8);
  EXPECT_THROW(run("no-such-problem", "luby", g), RegistryError);
}

TEST(RunnerDispatch, UnknownAlgoThrows) {
  const Graph g = build::cycle(8);
  EXPECT_THROW(run("mis", "no-such-algo", g), RegistryError);
}

TEST(RunnerDispatch, MismatchedPairThrows) {
  // cole-vishkin is registered for 3-coloring, not mis.
  const Graph g = build::cycle(8);
  EXPECT_THROW(run("mis", "cole-vishkin", g), RegistryError);
}

TEST(RunnerDispatch, PreconditionViolationThrows) {
  // Cole–Vishkin on a cubic graph: not an oriented cycle.
  const Graph g = build::random_regular_simple(16, 3, 2);
  EXPECT_THROW(run("3-coloring", "cole-vishkin", g), RegistryError);
}

TEST(RunnerDispatch, ErrorMessagesNameTheAvailableEntries) {
  const Graph g = build::cycle(8);
  try {
    run("mis", "no-such-algo", g);
    FAIL() << "expected RegistryError";
  } catch (const RegistryError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("luby"), std::string::npos) << msg;
  }
}

TEST(RunnerDispatch, ColorReduceNamesItsIdBound) {
  // color-reduce colors with the ids themselves, as ints. Sparse ids at
  // 2048 nodes come from {1..2048^3} and exceed 2^31 - 1.
  const Graph g = build::random_regular_simple(2048, 3, 1);
  RunOptions opts;
  opts.ids = IdStrategy::kSparse;
  try {
    run("coloring", "color-reduce", g, opts);
    FAIL() << "expected RegistryError";
  } catch (const RegistryError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("coloring/color-reduce needs ids at most 2^31 - 1 = "
                       "2147483647, got id "),
              std::string::npos)
        << msg;
  }
  EXPECT_NE(AlgorithmRegistry::instance()
                .algo("coloring", "color-reduce")
                .requires_text.find("2^31 - 1"),
            std::string::npos);
  // Ids within the bound still run.
  opts.ids = IdStrategy::kShuffled;
  EXPECT_TRUE(run("coloring", "color-reduce", g, opts).ok());
}

TEST(RunnerDispatch, UnknownIdStrategyNameThrows) {
  EXPECT_THROW((void)id_strategy_from_name("fancy"), RegistryError);
  EXPECT_EQ(id_strategy_from_name("sparse"), IdStrategy::kSparse);
}

// ---- registry as a value (extension sets) ----------------------------------

TEST(Registry, LocalRegistryIsIndependentOfTheGlobalOne) {
  AlgorithmRegistry local;
  EXPECT_EQ(local.num_problems(), 0u);
  local.register_problem({
      .name = "trivial",
      .family = "test",
      .summary = "accept everything",
      .check = [](const Graph&, const NeLabeling&, const NeLabeling&,
                  std::size_t) { return CheckResult{}; },
  });
  local.register_algo({
      .name = "noop",
      .problem = "trivial",
      .determinism = Determinism::kDeterministic,
      .complexity = "O(1)",
      .solve =
          [](const RunContext& ctx) {
            return AlgoResult{.output = NeLabeling(ctx.graph),
                              .rounds = RoundReport::uniform(ctx.graph, 0),
                              .stats = {}};
          },
  });
  const Graph g = build::path(5);
  const SolveOutcome outcome =
      run(local.problem("trivial"), local.algo("trivial", "noop"), g);
  EXPECT_TRUE(outcome.verification.ok);
  EXPECT_EQ(outcome.rounds.rounds, 0);
  EXPECT_FALSE(AlgorithmRegistry::instance().has_problem("trivial"));
}

}  // namespace
}  // namespace padlock
