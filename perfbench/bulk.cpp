// bulk-2e20: one resident Δ=3 regular graph at n = 2^20, four pairs run one
// at a time round-robin, each op a one-row run_batch plan (the row runs on
// the calling thread, so its internal phases get the whole pool).
//
// The traced path replays each op as the public calls run_with_ids makes,
// in the same order, one span per call, and must reproduce the untraced
// op's rounds and verification verdict.
#include <array>
#include <map>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/graph_cache.hpp"
#include "core/runner.hpp"

namespace perfbench {

namespace {

using namespace padlock;

struct PairName {
  const char* problem;
  const char* algo;
};

constexpr std::array<PairName, 4> kPairs{{{"mis", "luby"},
                                          {"matching", "propose-accept"},
                                          {"sinkless-orientation",
                                           "propose-repair"},
                                          {"coloring", "linial"}}};
constexpr std::size_t kNodes = std::size_t{1} << 20;
constexpr int kSetupReps = 3;

std::string pair_label(const PairName& p) {
  return std::string(p.problem) + "/" + p.algo;
}

struct Verdict {
  int rounds = 0;
  bool ok = false;
};

class Bulk {
 public:
  explicit Bulk(const Config& cfg)
      : cfg_(cfg), spec_{"regular", kNodes, 3, cfg.seed} {}

  Raw run() {
    setup();
    if (cfg_.trace) {
      raw_.phases.push_back(run_phase(false, cfg_.seconds / 2));
      raw_.phases.push_back(run_phase(true, cfg_.seconds / 2));
      raw_.spans = tracer_.take();
    } else {
      raw_.phases.push_back(run_phase(false, cfg_.seconds));
    }
    std::string outputs;
    for (const PairName& p : kPairs) {
      const Verdict& v = reference_.at(pair_label(p));
      raw_.local_rounds += v.rounds;
      outputs += pair_label(p) + ':' + std::to_string(v.rounds) +
                 (v.ok ? ":ok;" : ":failed;");
    }
    raw_.outputs_digest = fnv1a(outputs);
    raw_.layers.emplace_back(
        "graph_cache.hit_ratio",
        static_cast<double>(hits_) / static_cast<double>(hits_ + misses_));
    raw_.layers.emplace_back("engine.bytes_slab",
                             static_cast<double>(max_bytes_slab_));
    return std::move(raw_);
  }

 private:
  // Registry bootstrap plus the resident 2^20 build, several times; the
  // last build stays in the GraphCache for the measured ops.
  void setup() {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      GraphCache::instance().clear();
      const std::int64_t t0 = now_ns();
      (void)AlgorithmRegistry::instance();
      (void)GraphCache::instance().get_or_build(spec_.family, spec_.nodes,
                                                spec_.degree, spec_.seed);
      const std::int64_t t1 = now_ns();
      raw_.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      if (cfg_.trace) {
        const std::uint64_t id = tracer_.next_id();
        tracer_.add({id, 0, id, "setup", t0, t1});
        tracer_.add({tracer_.next_id(), id, id, "graph.build", t0, t1});
      }
    }
  }

  // Whole round-robin cycles until `seconds` have passed, so every phase
  // runs the four pairs equally often.
  Phase run_phase(bool traced, double seconds) {
    Phase phase;
    phase.traced = traced;
    const std::int64_t start = now_ns();
    do {
      for (const PairName& p : kPairs) {
        phase.ops.push_back(traced ? traced_op(p) : untraced_op(p));
      }
    } while (static_cast<double>(now_ns() - start) / 1e9 < seconds);
    phase.wall_s = static_cast<double>(now_ns() - start) / 1e9;
    return phase;
  }

  OpRecord untraced_op(const PairName& p) {
    ExecutionPlan plan;
    plan.pairs = {{p.problem, p.algo}};
    plan.graphs = {spec_};
    plan.options.seed = cfg_.seed;
    plan.options.ids = IdStrategy::kShuffled;
    plan.threads = cfg_.threads;

    const std::int64_t t0 = now_ns();
    const SweepOutcome outcome = run_batch(plan);
    const std::string json = row_to_json(outcome.rows.at(0));
    const std::int64_t t1 = now_ns();

    const SweepRow& row = outcome.rows[0];
    hits_ += outcome.cache_hits;
    misses_ += outcome.cache_misses;
    max_bytes_slab_ =
        std::max(max_bytes_slab_, row.stats.get_or("engine_bytes_slab", 0));
    OpRecord op{.kind = pair_label(p), .ms = ms_between(t0, t1),
                .ok = row.ok() && !json.empty(),
                .edges = row.ok() ? row.edges : 0, .rounds = row.rounds};
    // Same graph, ids and seed every cycle: the outcome must not change.
    const auto [it, first] =
        reference_.try_emplace(op.kind, Verdict{row.rounds, row.ok()});
    if (!first && (it->second.rounds != row.rounds ||
                   it->second.ok != row.ok())) {
      raw_.errors.push_back(op.kind + ": rounds/verdict changed between "
                            "identical runs");
    }
    if (!row.ok()) {
      raw_.errors.push_back(op.kind + ": " + std::string(status_cell(row)));
    }
    return op;
  }

  OpRecord traced_op(const PairName& p) {
    const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
    const ProblemSpec& problem = registry.problem(p.problem);
    const AlgoSpec& algo = registry.algo(p.problem, p.algo);
    const std::string label = pair_label(p);

    const std::int64_t t0 = now_ns();
    SweepRow row;
    {
      ScopedSpan op(tracer_, "op:" + label, 0, 0);
      // Declared before the op's data, so the last span ("release") stays
      // open while that data is destroyed at the end of this block.
      std::unique_ptr<ScopedSpan> span;
      const auto step = [&](const char* name) {
        span.reset();
        span = std::make_unique<ScopedSpan>(tracer_, name, op.id(), op.id());
      };
      step("graph_cache");
      const std::shared_ptr<const Graph> g = GraphCache::instance().get_or_build(
          spec_.family, spec_.nodes, spec_.degree, spec_.seed);
      step("precondition");
      const bool admitted = !algo.precondition || algo.precondition(*g);
      step("shuffled_ids");
      const IdMap ids = shuffled_ids(*g, cfg_.seed);
      step("ids_valid");
      const bool ids_ok = ids_valid(*g, ids);
      step("make_input");
      const NeLabeling input =
          problem.make_input ? problem.make_input(*g) : NeLabeling(*g);
      step("solve");
      const RunContext ctx{.graph = *g,
                           .ids = ids,
                           .id_space = g->num_nodes(),
                           .seed = cfg_.seed,
                           .input = input};
      AlgoResult result = algo.solve(ctx);
      step("check");
      CheckResult verdict;
      if (problem.check) {
        verdict = problem.check(*g, input, result.output, 16);
      } else {
        const auto lcl = problem.make_lcl(*g);
        verdict = check_ne_lcl(*g, *lcl, input, result.output, 16);
      }
      step("row_to_json");
      row.problem = p.problem;
      row.algo = p.algo;
      row.graph = spec_;
      row.nodes = g->num_nodes();
      row.edges = g->num_edges();
      row.status = !admitted   ? RowStatus::kSkipped
                   : !ids_ok   ? RowStatus::kError
                   : verdict.ok ? RowStatus::kOk
                                : RowStatus::kVerifyFailed;
      row.rounds = result.rounds.rounds;
      row.stats = std::move(result.stats);
      row.repeat = 1;
      const std::string json = row_to_json(row);
      if (json.empty()) row.status = RowStatus::kError;
      step("release");
    }
    const std::int64_t t1 = now_ns();

    const Verdict& want = reference_.at(label);
    if (row.rounds != want.rounds || row.ok() != want.ok) {
      throw TraceMismatch(label + ": traced path gave " +
                          std::to_string(row.rounds) + " rounds (" +
                          std::string(status_cell(row)) +
                          "), untraced gave " + std::to_string(want.rounds) +
                          (want.ok ? " (verified)" : " (failed)"));
    }
    return {.kind = label, .ms = ms_between(t0, t1), .ok = row.ok(),
            .edges = row.ok() ? row.edges : 0, .rounds = row.rounds};
  }

  const Config& cfg_;
  const GraphSpec spec_;
  Raw raw_;
  Tracer tracer_;
  std::map<std::string, Verdict> reference_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::int64_t max_bytes_slab_ = 0;
};

}  // namespace

Raw run_bulk(const Config& cfg) { return Bulk(cfg).run(); }

}  // namespace perfbench
