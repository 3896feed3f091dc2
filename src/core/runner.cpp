#include "core/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

#include "core/graph_cache.hpp"
#include "graph/builders.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace padlock {

namespace {

IdMap make_ids(const Graph& g, IdStrategy strategy, std::uint64_t seed) {
  switch (strategy) {
    case IdStrategy::kSequential:
      return sequential_ids(g);
    case IdStrategy::kShuffled:
      return shuffled_ids(g, seed);
    case IdStrategy::kSparse:
      return sparse_ids(g, seed);
    case IdStrategy::kAdversarial:
      return bfs_adversarial_ids(g);
  }
  PADLOCK_REQUIRE(false);
}

std::uint64_t default_id_space(const Graph& g, IdStrategy strategy) {
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  return strategy == IdStrategy::kSparse ? sparse_id_space(n) : n;
}

// Input, solve and verification of one run whose pair, precondition and ids
// the caller has already checked.
SolveOutcome solve_and_verify(const ProblemSpec& problem,
                              const AlgoSpec& algo, const Graph& g,
                              const IdMap& ids, std::uint64_t id_space,
                              const RunOptions& opts) {
  const NeLabeling input =
      problem.make_input ? problem.make_input(g) : NeLabeling(g);
  const RunContext ctx{.graph = g,
                       .ids = ids,
                       .id_space = id_space,
                       .seed = opts.seed,
                       .input = input};
  AlgoResult result = algo.solve(ctx);

  SolveOutcome outcome{.output = std::move(result.output),
                       .rounds = std::move(result.rounds),
                       .stats = std::move(result.stats),
                       .verification = {}};
  if (opts.check) {
    if (problem.check) {
      outcome.verification =
          problem.check(g, input, outcome.output, opts.max_violations);
    } else {
      const auto lcl = problem.make_lcl(g);
      outcome.verification =
          check_ne_lcl(g, *lcl, input, outcome.output, opts.max_violations);
    }
  }
  return outcome;
}

}  // namespace

std::string_view id_strategy_name(IdStrategy s) {
  switch (s) {
    case IdStrategy::kSequential:
      return "sequential";
    case IdStrategy::kShuffled:
      return "shuffled";
    case IdStrategy::kSparse:
      return "sparse";
    case IdStrategy::kAdversarial:
      return "adversarial";
  }
  PADLOCK_REQUIRE(false);
}

IdStrategy id_strategy_from_name(const std::string& name) {
  if (name == "sequential") return IdStrategy::kSequential;
  if (name == "shuffled") return IdStrategy::kShuffled;
  if (name == "sparse") return IdStrategy::kSparse;
  if (name == "adversarial") return IdStrategy::kAdversarial;
  throw RegistryError("unknown id strategy '" + name +
                      "'; expected sequential|shuffled|sparse|adversarial");
}

SolveOutcome run_with_ids(const ProblemSpec& problem, const AlgoSpec& algo,
                          const Graph& g, const IdMap& ids,
                          std::uint64_t id_space, const RunOptions& opts) {
  if (algo.problem != problem.name) {
    throw RegistryError("algorithm '" + algo.name + "' solves '" +
                        algo.problem + "', not '" + problem.name + "'");
  }
  if (algo.precondition && !algo.precondition(g)) {
    std::ostringstream msg;
    msg << "graph violates the precondition of " << problem.name << '/'
        << algo.name;
    if (!algo.requires_text.empty()) msg << " (requires " << algo.requires_text
                                         << ")";
    throw RegistryError(msg.str());
  }
  PADLOCK_REQUIRE(ids_valid(g, ids));
  return solve_and_verify(problem, algo, g, ids, id_space, opts);
}

SolveOutcome run(const ProblemSpec& problem, const AlgoSpec& algo,
                 const Graph& g, const RunOptions& opts) {
  const IdMap ids = make_ids(g, opts.ids, opts.seed);
  return run_with_ids(problem, algo, g, ids, default_id_space(g, opts.ids),
                      opts);
}

SolveOutcome run(const std::string& problem, const std::string& algo,
                 const Graph& g, const RunOptions& opts) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  return run(registry.problem(problem), registry.algo(problem, algo), g, opts);
}

// ---- batched execution -----------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

void fill_wall_stats(std::vector<std::uint64_t> times, SweepRow& row) {
  if (times.empty()) return;
  row.repeat = static_cast<int>(times.size());
  const WallStats stats = wall_stats(std::move(times));
  row.wall_ns_min = stats.min_ns;
  row.wall_ns_median = stats.median_ns;
}

// Sets exec_context().threads for the scope of one batch and restores it.
// threads == 0 leaves the global untouched — in both directions, so
// concurrent batches that keep the ambient count (the serve executors)
// never write it. A batch nested inside a pool worker (a ScenarioTask body
// calling run_batch) runs inline regardless, so the guard must not mutate
// the global from that racy position either.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(int threads)
      : set_(threads != 0 && !ThreadPool::on_worker_thread()),
        saved_(exec_context().threads) {
    if (set_) exec_context().threads = threads;
  }
  ~ThreadsGuard() {
    if (set_) exec_context().threads = saved_;
  }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;

 private:
  bool set_;
  int saved_;
};

}  // namespace

WallStats wall_stats(std::vector<std::uint64_t> samples_ns) {
  if (samples_ns.empty()) return {};
  std::sort(samples_ns.begin(), samples_ns.end());
  const std::size_t mid = samples_ns.size() / 2;
  return {samples_ns.front(),
          samples_ns.size() % 2 == 1
              ? samples_ns[mid]
              : (samples_ns[mid - 1] + samples_ns[mid]) / 2};
}

std::string_view row_status_name(RowStatus s) {
  switch (s) {
    case RowStatus::kOk:
      return "ok";
    case RowStatus::kSkipped:
      return "skipped";
    case RowStatus::kVerifyFailed:
      return "verify_failed";
    case RowStatus::kError:
      return "error";
  }
  PADLOCK_REQUIRE(false);
}

std::string status_cell(const SweepRow& row) {
  switch (row.status) {
    case RowStatus::kOk:
      return "yes";
    case RowStatus::kSkipped:
      return "skip: " + row.note;
    case RowStatus::kVerifyFailed:
      return "NO " + row.note;
    case RowStatus::kError:
      return "ERR " + row.error;
  }
  PADLOCK_REQUIRE(false);
}

bool SweepOutcome::all_ok() const {
  for (const SweepRow& row : rows) {
    if (row.failed()) return false;
  }
  return true;
}

std::string cache_note(const SweepOutcome& outcome) {
  if (!outcome.cached) return "graph cache: off";
  return "graph cache: " + std::to_string(outcome.cache_hits) + " hits, " +
         std::to_string(outcome.cache_misses) + " misses";
}

std::size_t report_failed_rows(const SweepOutcome& outcome,
                               const std::string& label) {
  std::size_t failures = 0;
  for (const SweepRow& row : outcome.rows) {
    if (!row.failed()) continue;
    ++failures;
    std::fprintf(stderr, "%s: %s%s%s @%s n=%zu: %s\n", label.c_str(),
                 row.problem.c_str(), row.algo.empty() ? "" : "/",
                 row.algo.c_str(), row.graph.family.c_str(), row.graph.nodes,
                 status_cell(row).c_str());
  }
  return failures;
}

int finish_bench(const SweepOutcome& outcome, const std::string& label) {
  const std::size_t failures = report_failed_rows(outcome, label);
  if (failures != 0) {
    std::printf(
        "\nWARNING: %zu poisoned scenario row(s); table cells fed by failed\n"
        "scenarios are invalid (details on stderr).\n",
        failures);
  }
  return failures == 0 ? 0 : 1;
}

namespace {

// A (problem, algorithm) name pair resolved against the registry, or the
// reason resolution failed — an unknown/mismatched pair poisons its rows
// instead of aborting the batch.
struct ResolvedPair {
  const ProblemSpec* problem = nullptr;
  const AlgoSpec* algo = nullptr;
  std::string problem_name;
  std::string algo_name;
  std::string error;  // non-empty: resolution failed
};

// Backstop for failures that escape the per-row capture (an allocation
// failure in the bookkeeping itself): any row of a faulted chunk that was
// never completed inherits the chunk's error instead of reading as a clean
// default-constructed result. Completed rows (repeat > 0, or already in a
// terminal skipped/error state) keep their results.
void stamp_chunk_faults(const std::vector<ThreadPool::ChunkFault>& faults,
                        std::vector<SweepRow>& rows) {
  for (const ThreadPool::ChunkFault& fault : faults) {
    const std::size_t end = std::min(fault.end, rows.size());
    for (std::size_t i = fault.begin; i < end; ++i) {
      SweepRow& row = rows[i];
      if (row.status == RowStatus::kOk && row.repeat == 0 &&
          row.error.empty()) {
        row.status = RowStatus::kError;
        row.error = fault.error;
      }
    }
  }
}

}  // namespace

SweepOutcome run_batch(const ExecutionPlan& plan) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  PADLOCK_REQUIRE(plan.repeat >= 1);

  // Resolve the pair list up front; a bad name is attributed to that pair's
  // rows once the cross-product is laid out.
  std::vector<ResolvedPair> pairs;
  if (plan.pairs.empty()) {
    for (const auto& [p, a] : registry.pairs()) {
      pairs.push_back({p, a, p->name, a->name, {}});
    }
  } else {
    pairs.reserve(plan.pairs.size());
    for (const auto& [p, a] : plan.pairs) {
      ResolvedPair rp{nullptr, nullptr, p, a, {}};
      try {
        rp.problem = &registry.problem(p);
        rp.algo = &registry.algo(p, a);
      } catch (...) {
        rp.error = describe_current_exception();
      }
      pairs.push_back(std::move(rp));
    }
  }

  ThreadsGuard guard(plan.threads);
  SweepOutcome outcome;
  outcome.threads = resolved_threads();
  const auto batch_t0 = Clock::now();

  // Resolve the instance menu once; every pair shares the same immutable
  // graphs. A family that fails to build (unknown name, invalid parameters,
  // bad_alloc) poisons only the rows that needed it.
  //
  // The menu dedupes by canonical key first (a later duplicate of an
  // earlier spec is a hit without touching the cache) and pulls each
  // distinct spec through the process-wide GraphCache.
  std::vector<std::shared_ptr<const Graph>> graphs(plan.graphs.size());
  std::vector<std::string> graph_errors(plan.graphs.size());
  outcome.cached = true;
  std::vector<std::size_t> build_list;  // menu indices that actually build
  std::vector<std::size_t> alias(plan.graphs.size());
  std::map<build::FamilyKey, std::size_t> first_of;
  for (std::size_t i = 0; i < plan.graphs.size(); ++i) {
    const GraphSpec& s = plan.graphs[i];
    const auto [it, inserted] = first_of.try_emplace(
        build::canonical_key(s.family, s.nodes, s.degree, s.seed), i);
    if (inserted) {
      build_list.push_back(i);
    } else {
      ++outcome.cache_hits;  // duplicate row of this very plan
    }
    alias[i] = it->second;
  }
  std::atomic<std::uint64_t> menu_hits{0};
  std::atomic<std::uint64_t> menu_misses{0};
  parallel_for(0, build_list.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t bi = b; bi < e; ++bi) {
      const std::size_t i = build_list[bi];
      const GraphSpec& spec = plan.graphs[i];
      try {
        bool hit = false;
        graphs[i] = GraphCache::instance().get_or_build(
            spec.family, spec.nodes, spec.degree, spec.seed, &hit);
        (hit ? menu_hits : menu_misses).fetch_add(1,
                                                  std::memory_order_relaxed);
      } catch (...) {
        graph_errors[i] = describe_current_exception();
      }
    }
  });
  for (std::size_t i = 0; i < plan.graphs.size(); ++i) {
    if (alias[i] != i) {
      graphs[i] = graphs[alias[i]];
      graph_errors[i] = graph_errors[alias[i]];
    }
  }
  outcome.cache_hits += menu_hits.load();
  outcome.cache_misses += menu_misses.load();

  // One row per (pair, graph) cell, pair-major; each cell is an independent
  // pool task, so the whole cross-product × repeat sweep saturates the
  // workers while the rows stay in deterministic order. Each row's work is
  // structurally captured: whatever it throws lands in that row alone.
  outcome.rows.resize(pairs.size() * graphs.size());
  const auto faults = parallel_for_capture(
      0, outcome.rows.size(), 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const ResolvedPair& pair = pairs[i / graphs.size()];
          const std::size_t gi = i % graphs.size();

          SweepRow& row = outcome.rows[i];
          row.problem = pair.problem_name;
          row.algo = pair.algo_name;
          row.graph = plan.graphs[gi];
          // Requested size until an instance is built, so a poisoned row
          // still says which cell of a multi-size sweep it was.
          row.nodes = plan.graphs[gi].nodes;

          // The row's work, as a block so every early-out path (poisoned
          // pair/graph, skip) still reaches the streaming hook below.
          [&] {
            if (!pair.error.empty()) {
              row.status = RowStatus::kError;
              row.error = pair.error;
              return;
            }
            if (!graph_errors[gi].empty()) {
              row.status = RowStatus::kError;
              row.error = "graph menu: " + graph_errors[gi];
              return;
            }
            const Graph& g = *graphs[gi];
            row.nodes = g.num_nodes();
            row.edges = g.num_edges();

            std::vector<std::uint64_t> times;
            times.reserve(static_cast<std::size_t>(plan.repeat));
            try {
              if (pair.algo->precondition && !pair.algo->precondition(g)) {
                row.status = RowStatus::kSkipped;
                row.note = pair.algo->requires_text.empty()
                               ? "precondition failed"
                               : pair.algo->requires_text;
                return;
              }
              bool reported = false;  // rounds/stats taken yet?
              for (int r = 0; r < plan.repeat; ++r) {
                RunOptions opts = plan.options;
                opts.seed += static_cast<std::uint64_t>(r);
                // The pair resolved through the registry and the
                // precondition passed above; only the fresh ids are left
                // to check.
                const auto t0 = Clock::now();
                const IdMap ids = make_ids(g, opts.ids, opts.seed);
                PADLOCK_REQUIRE(ids_valid(g, ids));
                const SolveOutcome solved =
                    solve_and_verify(*pair.problem, *pair.algo, g, ids,
                                  default_id_space(g, opts.ids), opts);
                times.push_back(elapsed_ns(t0));
                // rounds/stats come from the first *verified* repeat, so a
                // failed repeat 0 cannot masquerade as the reported result.
                if (!reported && solved.ok()) {
                  row.rounds = solved.rounds.rounds;
                  row.stats = solved.stats;
                  reported = true;
                }
                if (!solved.ok()) {
                  row.status = RowStatus::kVerifyFailed;
                  if (row.note.empty()) {
                    row.note =
                        "verification failed (seed " +
                        std::to_string(opts.seed) + ", " +
                        std::to_string(solved.verification.total_violations) +
                        " sites)";
                  }
                }
              }
              if (!reported && row.status == RowStatus::kVerifyFailed) {
                row.note += "; rounds/stats zeroed (no verified repeat)";
              }
            } catch (...) {
              // Completed repeats keep their timings; the remaining ones
              // are abandoned (a deterministic throw would just repeat
              // itself).
              row.status = RowStatus::kError;
              row.error = describe_current_exception();
            }
            fill_wall_stats(std::move(times), row);
          }();

          // Per-row streaming delivery (the serve daemon). A throwing hook
          // must not poison the computed result — the failure is recorded
          // on the row and the sweep carries on.
          if (plan.on_row) {
            try {
              plan.on_row(i, row);
            } catch (...) {
              std::string hook_error;
              try {
                hook_error = describe_current_exception();
              } catch (...) {
              }
              row.note += (row.note.empty() ? "" : "; ");
              row.note += "on_row hook failed: " + hook_error;
            }
          }
        }
      });
  stamp_chunk_faults(faults, outcome.rows);

  outcome.wall_ns = elapsed_ns(batch_t0);
  return outcome;
}

SweepOutcome run_scenarios(const std::vector<ScenarioTask>& scenarios,
                           int repeat) {
  PADLOCK_REQUIRE(repeat >= 1);
  SweepOutcome outcome;
  outcome.threads = resolved_threads();
  const auto batch_t0 = Clock::now();

  outcome.rows.resize(scenarios.size());
  const auto faults = parallel_for_capture(
      0, scenarios.size(), 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          SweepRow& row = outcome.rows[i];
          row.problem = scenarios[i].label;
          row.graph.family.clear();  // no instance menu behind a scenario
          std::vector<std::uint64_t> times;
          times.reserve(static_cast<std::size_t>(repeat));
          try {
            for (int r = 0; r < repeat; ++r) {
              const auto t0 = Clock::now();
              scenarios[i].body(row);
              times.push_back(elapsed_ns(t0));
            }
          } catch (...) {
            // A throwing body poisons its own row only; the other
            // scenarios of the batch are untouched.
            row.status = RowStatus::kError;
            row.error = describe_current_exception();
          }
          fill_wall_stats(std::move(times), row);
        }
      });
  stamp_chunk_faults(faults, outcome.rows);

  outcome.wall_ns = elapsed_ns(batch_t0);
  return outcome;
}

namespace {

/// Derived throughput column: edge traversals per second, counting one
/// traversal per edge per round (rounds == 0 rows — builders, loaders —
/// count one pass over the edge set). 0 when the row carries no edge count
/// or no timing.
std::uint64_t edges_per_sec(const SweepRow& row) {
  if (row.edges == 0 || row.wall_ns_min == 0) return 0;
  const double traversals =
      static_cast<double>(row.edges) *
      static_cast<double>(row.rounds > 0 ? row.rounds : 1);
  return static_cast<std::uint64_t>(
      traversals * 1e9 / static_cast<double>(row.wall_ns_min));
}

// One row object, exactly as it appears inside to_json's "rows" array;
// row_to_json exposes the same bytes to the serve daemon's streaming path.
void append_row_json(std::ostringstream& out, const SweepRow& row) {
  out << "{\"problem\": " << json_quote(row.problem)
      << ", \"algo\": " << json_quote(row.algo)
      << ", \"family\": " << json_quote(row.graph.family)
      << ", \"nodes\": " << row.nodes
      << ", \"edges\": " << row.edges << ", \"rounds\": " << row.rounds
      << ", \"status\": \"" << row_status_name(row.status)
      << "\", \"ok\": " << (row.ok() ? "true" : "false")
      << ", \"skipped\": " << (row.skipped() ? "true" : "false");
  if (!row.note.empty()) {
    out << ", \"note\": " << json_quote(row.note);
  }
  if (!row.error.empty()) {
    out << ", \"error\": " << json_quote(row.error);
  }
  out << ", \"repeat\": " << row.repeat
      << ", \"wall_ns_min\": " << row.wall_ns_min
      << ", \"wall_ns_median\": " << row.wall_ns_median
      << ", \"edges_per_sec\": " << edges_per_sec(row);
  if (!row.stats.entries.empty()) {
    out << ", \"stats\": {";
    bool first_stat = true;
    for (const auto& [key, value] : row.stats.entries) {
      if (!first_stat) out << ", ";
      first_stat = false;
      out << json_quote(key) << ": " << value;
    }
    out << "}";
  }
  out << "}";
}

}  // namespace

std::string row_to_json(const SweepRow& row) {
  std::ostringstream out;
  append_row_json(out, row);
  return out.str();
}

std::string to_json(const SweepOutcome& outcome) {
  std::ostringstream out;
  out << "{\"threads\": " << outcome.threads
      << ", \"wall_ns\": " << outcome.wall_ns
      << ", \"cache\": " << (outcome.cached ? "true" : "false")
      << ", \"cache_hits\": " << outcome.cache_hits
      << ", \"cache_misses\": " << outcome.cache_misses << ", \"rows\": [";
  bool first = true;
  for (const SweepRow& row : outcome.rows) {
    if (!first) out << ",";
    first = false;
    out << "\n  ";
    append_row_json(out, row);
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace padlock
