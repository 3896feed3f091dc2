// The unified runner: drives a registered (problem, algorithm) pair end to
// end — id assignment, input generation, solving, round accounting, and
// (by default) verification through the problem's checker.
//
// This is the API every call site of the library goes through: the CLI's
// `run` subcommand, the fig benches, and the registry round-trip tests all
// dispatch here instead of hand-wiring the bespoke per-algorithm entry
// points (which remain available as implementation detail; see
// docs/API.md for the migration table).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "support/thread_pool.hpp"

namespace padlock {

/// The one result type of the redesigned surface.
struct SolveOutcome {
  NeLabeling output;       // unified ne-LCL encoding of the solution
  RoundReport rounds;      // honest LOCAL round accounting
  Stats stats;             // algorithm-specific counters
  CheckResult verification;  // default-constructed (ok) when checking is off

  /// True iff the run is verified correct (or verification was skipped).
  [[nodiscard]] bool ok() const { return verification.ok; }
};

/// How the runner assigns the unique ids of the LOCAL model.
enum class IdStrategy {
  kSequential,   // 1..n in node order
  kShuffled,     // random permutation of 1..n
  kSparse,       // n distinct ids from {1..n^3}
  kAdversarial,  // descending along a BFS (worst case for greedy rules)
};

[[nodiscard]] std::string_view id_strategy_name(IdStrategy s);
/// Parses "sequential|shuffled|sparse|adversarial"; throws RegistryError.
[[nodiscard]] IdStrategy id_strategy_from_name(const std::string& name);

struct RunOptions {
  std::uint64_t seed = 1;
  /// The id space follows from the strategy: n, or n^3 for sparse ids
  /// (run_with_ids takes caller-supplied ids and id space).
  IdStrategy ids = IdStrategy::kShuffled;
  /// Every run is checked by default.
  bool check = true;
  std::size_t max_violations = 16;
};

/// Runs `algo` on `g` and verifies the outcome. Throws RegistryError if the
/// pair is mismatched or g violates the algorithm's precondition.
SolveOutcome run(const ProblemSpec& problem, const AlgoSpec& algo,
                 const Graph& g, const RunOptions& opts = {});

/// Name-based dispatch against the global registry. Throws RegistryError on
/// unknown names.
SolveOutcome run(const std::string& problem, const std::string& algo,
                 const Graph& g, const RunOptions& opts = {});

/// Caller-supplied ids (the general LOCAL contract: deterministic
/// algorithms must work for every unique assignment from {1..id_space}).
SolveOutcome run_with_ids(const ProblemSpec& problem, const AlgoSpec& algo,
                          const Graph& g, const IdMap& ids,
                          std::uint64_t id_space, const RunOptions& opts = {});

// ---- batched execution (the sweep surface) ---------------------------------
//
// A sweep is a *plan*: the cross-product of registered (problem, algorithm)
// pairs and a menu of named-family instances, executed across the global
// thread pool (support/thread_pool.hpp) with per-run wall-clock stats. The
// CLI's `sweep` subcommand and every bench dispatch here instead of
// hand-rolling their scenario loops.

/// One instance of the graph menu, by family name (build::family).
struct GraphSpec {
  std::string family = "regular";
  std::size_t nodes = 64;
  int degree = 3;
  std::uint64_t seed = 1;
};

struct SweepRow;  // the on_row hook's payload; defined below

/// What to execute: pairs × graphs, `repeat` timed runs each.
struct ExecutionPlan {
  /// (problem, algorithm) name pairs; empty = every registered pair.
  std::vector<std::pair<std::string, std::string>> pairs;
  /// The instance menu; every pair runs on every entry it is compatible
  /// with (incompatible combinations become `skipped` rows).
  std::vector<GraphSpec> graphs;
  /// Options of each run. Repeat r uses seed options.seed + r, so repeats
  /// of randomized pairs sample different executions deterministically.
  RunOptions options;
  int repeat = 1;
  /// Worker threads for this batch: 0 = keep exec_context() as is,
  /// otherwise exec_context().threads is set (and restored) around the run.
  int threads = 0;
  /// Row-streaming hook (the serve daemon's per-row delivery path,
  /// docs/API.md "Serve"): invoked once per finished row — ok, skipped,
  /// verify_failed, and error rows alike — from whichever pool worker
  /// completed it, concurrently with other rows, so the callback must be
  /// thread-safe. `index` is the row's pair-major position in
  /// SweepOutcome::rows; the row reference is only valid for the duration
  /// of the call (the final rows are returned as usual). A throwing hook
  /// never poisons the batch: the failure is appended to that row's note
  /// and the sweep continues. Rows stamped by a chunk-level fault
  /// (allocation failure in the bookkeeping itself) are not reported.
  std::function<void(std::size_t index, const SweepRow& row)> on_row;
};

/// Row-scoped outcome taxonomy: failure is a first-class result, never a
/// batch abort. Every cell of a sweep lands in exactly one state.
enum class RowStatus {
  kOk,            // every repeat ran and verified
  kSkipped,       // precondition rejected the pair on this graph (not a
                  // failure: the plan's cross-product was simply too wide)
  kVerifyFailed,  // the run completed but the checker rejected the output
  kError,         // the row's work threw (RegistryError, ContractViolation,
                  // graph-menu build failure, bad_alloc, ...)
};

/// "ok" | "skipped" | "verify_failed" | "error" (the JSON `status` values).
[[nodiscard]] std::string_view row_status_name(RowStatus s);

/// One (pair, graph) cell of the executed plan.
struct SweepRow {
  std::string problem;
  std::string algo;
  GraphSpec graph;          // the requested spec ...
  std::size_t nodes = 0;    // ... and the actual instance size (the
                            // requested size on rows that never built one)
  std::size_t edges = 0;
  RowStatus status = RowStatus::kOk;
  std::string note;         // skip reason / verification-failure summary
  std::string error;        // exception type + message (kError rows only)
  int rounds = 0;           // LOCAL rounds of the first verified repeat
  Stats stats;              // counters of the first verified repeat
  int repeat = 0;           // timed repeats executed
  std::uint64_t wall_ns_min = 0;
  std::uint64_t wall_ns_median = 0;

  [[nodiscard]] bool ok() const { return status == RowStatus::kOk; }
  [[nodiscard]] bool skipped() const { return status == RowStatus::kSkipped; }
  /// True for the states that should fail a batch (verify_failed / error).
  [[nodiscard]] bool failed() const { return !ok() && !skipped(); }
};

/// Human-readable status cell shared by the CLI and bench tables:
/// "yes" / "skip: <note>" / "NO <note>" / "ERR <error>".
[[nodiscard]] std::string status_cell(const SweepRow& row);

/// min/median wall-time convention shared by run_batch rows and the CLI's
/// `run --repeat` (even sample counts average the two middle samples).
struct WallStats {
  std::uint64_t min_ns = 0;
  std::uint64_t median_ns = 0;
};
[[nodiscard]] WallStats wall_stats(std::vector<std::uint64_t> samples_ns);

/// The executed plan: rows in pair-major order (row index =
/// pair_index * graphs.size() + graph_index), so call sites can rebuild the
/// cross-product without searching.
struct SweepOutcome {
  std::vector<SweepRow> rows;
  int threads = 1;              // resolved worker count the batch ran with
  std::uint64_t wall_ns = 0;    // whole-batch wall clock
  /// Graph-cache accounting of this batch's menu resolution: a hit is a
  /// menu entry served without building (already cached, or a duplicate
  /// spec earlier in the same plan). Both stay 0 for run_scenarios batches
  /// (no menu).
  bool cached = false;          // true for run_batch, false for run_scenarios
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// True iff no row failed (every row is ok or skipped).
  [[nodiscard]] bool all_ok() const;
};

/// One-line cache accounting for bench/CLI footers: "graph cache: 3 hits, 5
/// misses" (or "graph cache: off" for menu-less run_scenarios batches).
[[nodiscard]] std::string cache_note(const SweepOutcome& outcome);

/// Prints every failed row of `outcome` to stderr, prefixed with `label`,
/// and returns how many there were. The benches report poisoned cells this
/// way (and exit nonzero) instead of dying mid-batch.
std::size_t report_failed_rows(const SweepOutcome& outcome,
                               const std::string& label);

/// Standard epilogue of a scenario-driven bench: report_failed_rows plus a
/// stdout warning that table cells fed by failed scenarios are invalid,
/// mapped to the process exit code (0 = clean, 1 = failures). Call after
/// printing the tables.
int finish_bench(const SweepOutcome& outcome, const std::string& label);

/// Executes the plan. The graph menu resolves through the sweep-wide
/// GraphCache (one build per distinct canonical spec, shared across rows,
/// repeats, threads, and earlier batches); runs are dispatched through the
/// thread pool at single-run granularity. The rows are bit-identical for
/// every thread count. A row checks its pair's precondition once, whatever
/// its repeat count; each repeat validates the ids it generates.
///
/// Failure is row-scoped: an unknown pair name, a graph family that fails
/// to build, a throwing solver, or a contract violation poisons exactly the
/// rows that needed it (status kError, `error` carries the exception type
/// and message) while every other row completes untouched. run_batch itself
/// throws only on a malformed plan (repeat < 1).
SweepOutcome run_batch(const ExecutionPlan& plan);

/// Escape hatch for workloads that do not dispatch through the registry
/// (gadget verifiers, padding hierarchies): a named body that fills its own
/// SweepRow. run_scenarios times and parallelizes them with the same
/// machinery as run_batch; the body is invoked once per repeat and must be
/// safe to run concurrently with the other scenarios in the batch. A body
/// that throws poisons only its own row (status kError), with the remaining
/// repeats of that row abandoned. The batch runs at exec_context().threads.
struct ScenarioTask {
  std::string label;
  std::function<void(SweepRow&)> body;
};

SweepOutcome run_scenarios(const std::vector<ScenarioTask>& scenarios,
                           int repeat = 1);

/// Renders the outcome as one strict JSON object — the machine-readable
/// sweep format written by `padlock_cli sweep --json` and bench_micro's
/// BENCH_micro.json:
///
///   {"threads": T, "wall_ns": W, "cache": true|false,
///    "cache_hits": H, "cache_misses": M, "rows": [...]}
///
/// Every row is emitted (skipped rows included, with "skipped": true), one
/// object per row: problem, algo, family, nodes, edges, rounds, status, ok,
/// skipped, note?, error?, repeat, wall_ns_min, wall_ns_median,
/// edges_per_sec (derived throughput: edge traversals per second, one per
/// edge per round — rows without an edge count or timing report 0), and
/// stats (the row's counter entries as one flat object, e.g. the engine's
/// resident footprint engine_bytes_slab/engine_bytes_state; omitted when
/// the row has no counters).
/// Strings are escaped, so quotes/backslashes/control characters in names
/// or error messages cannot corrupt the output. The exact byte layout is
/// pinned by the golden-snapshot test (tests/sweep_json_test.cpp); changing
/// it means regenerating the committed fixture.
[[nodiscard]] std::string to_json(const SweepOutcome& outcome);

/// One sweep row rendered as exactly the JSON object to_json emits inside
/// its "rows" array — the unit the serve daemon streams per completed row
/// (src/serve/, docs/API.md "Serve"). Sharing the renderer is what makes a
/// streamed row bit-identical to the same row of an offline sweep (up to
/// the wall-clock fields); pinned by tests/serve_test.cpp and the sweep
/// golden.
[[nodiscard]] std::string row_to_json(const SweepRow& row);

}  // namespace padlock
