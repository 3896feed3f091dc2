// Fault-injection suite for the row-scoped failure model: a poisoned cell
// (throwing solver, contract violation, unknown family, unknown pair) must
// never take down the batch — it is attributed to its row while every other
// row's result stays bit-identical to a clean run.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "lcl/checker.hpp"
#include "lcl/problems/coloring.hpp"
#include "support/check.hpp"

namespace padlock {
namespace {

// ---- fault probes ----------------------------------------------------------
// A test-only problem with one verifying algorithm, three saboteurs, and a
// verifying algorithm whose precondition counts its calls, registered once
// into the process registry (this test binary only).

std::atomic<int> counted_precondition_calls{0};

AlgoResult probe_result(const RunContext& ctx, Label first_node_label) {
  AlgoResult res;
  res.output = NeLabeling(ctx.graph);
  if (res.output.node.size() > 0) res.output.node[0] = first_node_label;
  res.rounds = RoundReport::from(NodeMap<int>(ctx.graph, 1));
  res.stats.set("probe", 1);
  return res;
}

void ensure_fault_probes_registered() {
  static const bool once = [] {
    AlgorithmRegistry& r = AlgorithmRegistry::instance();
    r.register_problem(
        {.name = "test-fault",
         .family = "test",
         .summary = "fault-injection probe",
         .check = [](const Graph&, const NeLabeling&, const NeLabeling& out,
                     std::size_t max_violations) {
           CheckResult res;
           if (out.node.size() == 0 || out.node[0] != 7) {
             res.add_violation({}, max_violations);
           }
           return res;
         }});
    r.register_algo({.name = "ok",
                     .problem = "test-fault",
                     .complexity = "O(1)",
                     .solve = [](const RunContext& ctx) {
                       return probe_result(ctx, 7);
                     }});
    r.register_algo({.name = "wrong",
                     .problem = "test-fault",
                     .complexity = "O(1)",
                     .solve = [](const RunContext& ctx) {
                       return probe_result(ctx, 1);  // rejected by check
                     }});
    r.register_algo({.name = "throws",
                     .problem = "test-fault",
                     .complexity = "O(1)",
                     .solve = [](const RunContext&) -> AlgoResult {
                       throw std::runtime_error("injected solver fault");
                     }});
    r.register_algo({.name = "contract",
                     .problem = "test-fault",
                     .complexity = "O(1)",
                     .solve = [](const RunContext&) -> AlgoResult {
                       PADLOCK_REQUIRE(false && "injected contract violation");
                     }});
    r.register_algo({.name = "counted",
                     .problem = "test-fault",
                     .complexity = "O(1)",
                     .precondition =
                         [](const Graph&) {
                           counted_precondition_calls.fetch_add(1);
                           return true;
                         },
                     .solve = [](const RunContext& ctx) {
                       return probe_result(ctx, 7);
                     }});
    return true;
  }();
  (void)once;
}

class FaultIsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ensure_fault_probes_registered();
    saved_ = exec_context();
  }
  void TearDown() override { exec_context() = saved_; }

 private:
  ExecContext saved_;
};

// Everything except the wall-clock fields, which legitimately differ
// between two executions of the same plan.
void expect_rows_bit_identical(const SweepRow& a, const SweepRow& b) {
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
  EXPECT_EQ(a.repeat, b.repeat);
}

// ---- run_batch -------------------------------------------------------------

// plan.threads == 0 keeps the ambient worker count, so run_batch must not
// write exec_context().threads at all — not even to "restore" it on exit.
// Concurrent serve executors run such batches side by side; a restoring
// write raced them (and undid any change made while the batch ran).
TEST_F(FaultIsolationTest, ZeroThreadsPlanNeverWritesTheThreadCount) {
  exec_context().threads = 1;
  ExecutionPlan plan;
  plan.pairs = {{"mis", "luby"}};
  plan.graphs.push_back({"cycle", 64, 3, 5});
  plan.threads = 0;
  plan.on_row = [](std::size_t, const SweepRow&) {
    exec_context().threads = 2;
  };
  const SweepOutcome out = run_batch(plan);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_TRUE(out.rows[0].ok());
  EXPECT_EQ(exec_context().threads, 2);
}

TEST_F(FaultIsolationTest, PoisonedCellsDoNotKillTheBatch) {
  ExecutionPlan plan;
  plan.pairs = {{"test-fault", "ok"},
                {"test-fault", "throws"},
                {"test-fault", "contract"},
                {"no-such-problem", "algo"},
                {"mis", "luby"}};
  plan.graphs = {{"regular", 32, 3, 1},
                 {"no-such-family", 32, 3, 1},
                 {"cycle", 32, 3, 1}};
  plan.options.seed = 9;
  plan.threads = 2;

  const SweepOutcome out = run_batch(plan);
  ASSERT_EQ(out.rows.size(), 15u);  // the batch completed every cell
  EXPECT_FALSE(out.all_ok());

  const auto row = [&](std::size_t pair, std::size_t graph) -> const SweepRow& {
    return out.rows[pair * plan.graphs.size() + graph];
  };

  // The unknown family poisons exactly the middle column, for every pair
  // that got as far as needing the graph.
  for (std::size_t pi = 0; pi < plan.pairs.size(); ++pi) {
    if (pi == 3) continue;  // unknown pair: its own error wins below
    EXPECT_EQ(row(pi, 1).status, RowStatus::kError) << "pair " << pi;
    EXPECT_NE(row(pi, 1).error.find("graph menu:"), std::string::npos);
    EXPECT_NE(row(pi, 1).error.find("no-such-family"), std::string::npos);
  }

  // The throwing solver poisons its own cells with the exception type and
  // message.
  for (const std::size_t gi : {0u, 2u}) {
    EXPECT_EQ(row(1, gi).status, RowStatus::kError);
    EXPECT_NE(row(1, gi).error.find("runtime_error"), std::string::npos);
    EXPECT_NE(row(1, gi).error.find("injected solver fault"),
              std::string::npos);
  }

  // The contract-violating solver is caught, not aborted on.
  for (const std::size_t gi : {0u, 2u}) {
    EXPECT_EQ(row(2, gi).status, RowStatus::kError);
    EXPECT_NE(row(2, gi).error.find("ContractViolation"), std::string::npos);
  }

  // The unknown pair poisons its whole row range with the registry error.
  for (const std::size_t gi : {0u, 1u, 2u}) {
    EXPECT_EQ(row(3, gi).status, RowStatus::kError);
    EXPECT_EQ(row(3, gi).problem, "no-such-problem");
    EXPECT_NE(row(3, gi).error.find("RegistryError"), std::string::npos);
  }

  // Every failure carries a non-empty attribution.
  for (const SweepRow& r : out.rows) {
    if (r.status == RowStatus::kError) {
      EXPECT_FALSE(r.error.empty());
    }
  }

  // The healthy cells are bit-identical to the same plan without the
  // poisoned pairs/graphs.
  ExecutionPlan clean;
  clean.pairs = {{"test-fault", "ok"}, {"mis", "luby"}};
  clean.graphs = {{"regular", 32, 3, 1}, {"cycle", 32, 3, 1}};
  clean.options.seed = 9;
  clean.threads = 2;
  const SweepOutcome ref = run_batch(clean);
  ASSERT_EQ(ref.rows.size(), 4u);
  EXPECT_TRUE(ref.all_ok());

  const std::size_t poisoned_pair[] = {0, 4};  // ok, luby
  const std::size_t poisoned_graph[] = {0, 2};  // regular, cycle
  for (std::size_t pi = 0; pi < 2; ++pi) {
    for (std::size_t gi = 0; gi < 2; ++gi) {
      expect_rows_bit_identical(
          row(poisoned_pair[pi], poisoned_graph[gi]),
          ref.rows[pi * clean.graphs.size() + gi]);
      EXPECT_EQ(row(poisoned_pair[pi], poisoned_graph[gi]).status,
                RowStatus::kOk);
    }
  }
}

TEST_F(FaultIsolationTest, VerifyFailureIsItsOwnStatus) {
  ExecutionPlan plan;
  plan.pairs = {{"test-fault", "wrong"}};
  plan.graphs = {{"cycle", 16, 3, 1}};
  plan.repeat = 2;
  const SweepOutcome out = run_batch(plan);
  ASSERT_EQ(out.rows.size(), 1u);
  const SweepRow& row = out.rows[0];
  EXPECT_EQ(row.status, RowStatus::kVerifyFailed);
  EXPECT_FALSE(out.all_ok());
  EXPECT_NE(row.note.find("verification failed"), std::string::npos);
  EXPECT_TRUE(row.error.empty());  // it ran; it just produced a bad answer
  // No repeat verified, so rounds/stats stay zeroed and the note says so.
  EXPECT_EQ(row.rounds, 0);
  EXPECT_TRUE(row.stats.entries.empty());
  EXPECT_NE(row.note.find("rounds/stats zeroed"), std::string::npos);
  EXPECT_EQ(row.repeat, 2);  // both repeats still ran and were timed
}

TEST_F(FaultIsolationTest, RoundsComeFromFirstVerifiedRepeat) {
  // Sanity check of the happy path under repeat: a verified row reports
  // rounds/stats from a verified repeat, not blindly from repeat 0.
  ExecutionPlan plan;
  plan.pairs = {{"test-fault", "ok"}};
  plan.graphs = {{"cycle", 16, 3, 1}};
  plan.repeat = 3;
  const SweepOutcome out = run_batch(plan);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0].status, RowStatus::kOk);
  EXPECT_EQ(out.rows[0].rounds, 1);
  EXPECT_EQ(out.rows[0].stats.get_or("probe", 0), 1);
}

TEST_F(FaultIsolationTest, PreconditionIsCheckedOncePerRow) {
  // The row checks the precondition once; its repeats do not check it
  // again (each still validates the ids it generates).
  ExecutionPlan plan;
  plan.pairs = {{"test-fault", "counted"}};
  plan.graphs = {{"cycle", 16, 3, 1}};
  plan.repeat = 3;
  counted_precondition_calls = 0;
  const SweepOutcome out = run_batch(plan);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0].status, RowStatus::kOk);
  EXPECT_EQ(out.rows[0].repeat, 3);
  EXPECT_EQ(counted_precondition_calls.load(), 1);
}

// ---- run_scenarios ---------------------------------------------------------

TEST_F(FaultIsolationTest, ThrowingScenarioPoisonsOnlyItsRow) {
  const std::vector<ScenarioTask> tasks = {
      {"good-one", [](SweepRow& row) { row.nodes = 11; }},
      {"saboteur",
       [](SweepRow&) { throw std::invalid_argument("scenario boom"); }},
      {"good-two", [](SweepRow& row) { row.rounds = 3; }}};
  exec_context().threads = 2;  // restored by the fixture's TearDown
  const SweepOutcome out = run_scenarios(tasks, 2);
  ASSERT_EQ(out.rows.size(), 3u);
  EXPECT_FALSE(out.all_ok());

  EXPECT_EQ(out.rows[0].status, RowStatus::kOk);
  EXPECT_EQ(out.rows[0].nodes, 11u);
  EXPECT_EQ(out.rows[0].repeat, 2);

  EXPECT_EQ(out.rows[1].status, RowStatus::kError);
  EXPECT_NE(out.rows[1].error.find("invalid_argument"), std::string::npos);
  EXPECT_NE(out.rows[1].error.find("scenario boom"), std::string::npos);

  EXPECT_EQ(out.rows[2].status, RowStatus::kOk);
  EXPECT_EQ(out.rows[2].rounds, 3);
}

// ---- contract model --------------------------------------------------------

TEST_F(FaultIsolationTest, ContractViolatingCheckerInputThrows) {
  const Graph g = build::cycle(8);
  const ProperColoring lcl(3);
  const NeLabeling good(g);
  NeLabeling bad;  // wrong shape for g: violates the checker's precondition
  EXPECT_THROW(check_ne_lcl(g, lcl, bad, good), ContractViolation);
  EXPECT_THROW(check_ne_lcl(g, lcl, good, bad), ContractViolation);
}

TEST_F(FaultIsolationTest, ContractMessageCarriesExpressionAndLocation) {
  try {
    PADLOCK_REQUIRE(2 + 2 == 5);
    FAIL() << "contract violation did not throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("requirement failed"), std::string::npos);
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("fault_isolation_test.cpp"), std::string::npos);
  }
}

// ---- to_json under a strict parser -----------------------------------------
// Minimal strict JSON recognizer (RFC 8259 grammar, no extensions): enough
// to prove the emitted sweep format is real JSON even when error messages
// carry quotes, backslashes, and control characters.

bool json_value(const std::string& s, std::size_t& i);

void json_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
}

bool json_string(const std::string& s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  while (i < s.size()) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c < 0x20) return false;  // raw control characters are illegal
    if (c == '"') {
      ++i;
      return true;
    }
    if (c == '\\') {
      ++i;
      if (i >= s.size()) return false;
      const char esc = s[i];
      if (esc == 'u') {
        for (int k = 0; k < 4; ++k) {
          ++i;
          if (i >= s.size() || std::isxdigit(
                                   static_cast<unsigned char>(s[i])) == 0) {
            return false;
          }
        }
      } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
        return false;
      }
    }
    ++i;
  }
  return false;  // unterminated
}

bool json_number(const std::string& s, std::size_t& i) {
  const std::size_t start = i;
  if (i < s.size() && s[i] == '-') ++i;
  if (i >= s.size() || std::isdigit(static_cast<unsigned char>(s[i])) == 0) {
    return false;
  }
  if (s[i] == '0') {
    ++i;
  } else {
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (i >= s.size() || std::isdigit(static_cast<unsigned char>(s[i])) == 0) {
      return false;
    }
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (i >= s.size() || std::isdigit(static_cast<unsigned char>(s[i])) == 0) {
      return false;
    }
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  }
  return i > start;
}

bool json_sequence(const std::string& s, std::size_t& i, char open, char close,
                   bool is_object) {
  if (i >= s.size() || s[i] != open) return false;
  ++i;
  json_ws(s, i);
  if (i < s.size() && s[i] == close) {
    ++i;
    return true;
  }
  for (;;) {
    json_ws(s, i);
    if (is_object) {
      if (!json_string(s, i)) return false;
      json_ws(s, i);
      if (i >= s.size() || s[i] != ':') return false;
      ++i;
    }
    if (!json_value(s, i)) return false;
    json_ws(s, i);
    if (i >= s.size()) return false;
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == close) {
      ++i;
      return true;
    }
    return false;
  }
}

bool json_value(const std::string& s, std::size_t& i) {
  json_ws(s, i);
  if (i >= s.size()) return false;
  const char c = s[i];
  if (c == '{') return json_sequence(s, i, '{', '}', true);
  if (c == '[') return json_sequence(s, i, '[', ']', false);
  if (c == '"') return json_string(s, i);
  if (s.compare(i, 4, "true") == 0) return i += 4, true;
  if (s.compare(i, 5, "false") == 0) return i += 5, true;
  if (s.compare(i, 4, "null") == 0) return i += 4, true;
  return json_number(s, i);
}

bool json_valid(const std::string& s) {
  std::size_t i = 0;
  if (!json_value(s, i)) return false;
  json_ws(s, i);
  return i == s.size();
}

TEST_F(FaultIsolationTest, StrictJsonValidatorSelfTest) {
  EXPECT_TRUE(json_valid(R"([{"a": 1, "b": "x\"y\\z", "c": [true, null]}])"));
  EXPECT_TRUE(json_valid("[]\n"));
  EXPECT_FALSE(json_valid(R"({"a": 1,})"));
  EXPECT_FALSE(json_valid("[\"unescaped \x01 control\"]"));
  EXPECT_FALSE(json_valid(R"(["unterminated)"));
  EXPECT_FALSE(json_valid(R"([1] trailing)"));
}

TEST_F(FaultIsolationTest, ToJsonIsStrictJsonWithFailedSkippedAndQuotedRows) {
  // A batch with ok, skipped, verify-failed, and error rows ...
  ExecutionPlan plan;
  plan.pairs = {{"3-coloring", "cole-vishkin"},  // skips on the cubic graph
                {"test-fault", "wrong"},
                {"test-fault", "throws"},
                {"test-fault", "ok"}};
  plan.graphs = {{"cycle", 32, 3, 1}, {"regular", 32, 3, 1},
                 {"no-such-family", 32, 3, 1}};
  const SweepOutcome batch = run_batch(plan);
  EXPECT_FALSE(batch.all_ok());

  // ... plus scenario labels full of JSON-hostile characters.
  const std::vector<ScenarioTask> tasks = {
      {"label \"quoted\" with \\backslash\\ and \t tab", [](SweepRow&) {}},
      {"thrower", [](SweepRow&) {
         throw std::runtime_error("message with \"quotes\"\nand newline");
       }}};
  const SweepOutcome scenarios = run_scenarios(tasks);

  for (const SweepOutcome* out : {&batch, &scenarios}) {
    const std::string json = to_json(*out);
    EXPECT_TRUE(json_valid(json)) << json;
  }

  // Skipped rows are emitted, not silently dropped, and carry their note.
  const std::string json = to_json(batch);
  EXPECT_NE(json.find("\"status\": \"skipped\""), std::string::npos);
  EXPECT_NE(json.find("\"skipped\": true"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"verify_failed\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"note\": "), std::string::npos);
  EXPECT_NE(json.find("\"error\": "), std::string::npos);

  // Every row of the batch appears: 4 pairs × 3 graphs.
  std::size_t objects = 0;
  for (std::size_t pos = json.find("{\"problem\""); pos != std::string::npos;
       pos = json.find("{\"problem\"", pos + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, 12u);
}

}  // namespace
}  // namespace padlock
