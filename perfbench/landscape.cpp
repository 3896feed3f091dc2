// landscape: every registered pair × seven families × three sizes as one
// run_batch plan at threads = nproc, with the GraphCache cleared before each
// sweep so graph building is paid the way a fresh `padlock_cli sweep --json`
// pays it. An op is one whole sweep: the batch plus its JSON rendering.
//
// The traced sweep builds the menu through GraphCache first (one span per
// build), then runs the same plan (now all cache hits) with one span per
// row, placed from the on_row hook and the row's wall time.
#include <set>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "core/graph_cache.hpp"
#include "core/runner.hpp"

namespace perfbench {

namespace {

using namespace padlock;

// Pinned rather than "every registered pair": the workload is the paper's
// landscape, and a pair that disappears must show up as failed rows.
const std::vector<std::pair<std::string, std::string>> kPairs = {
    {"3-coloring", "cole-vishkin"},
    {"coloring", "color-reduce"},
    {"coloring", "decomposition-sweep"},
    {"coloring", "linial"},
    {"dist2-coloring", "power-linial"},
    {"edge-coloring", "line-graph-linial"},
    {"matching", "color-greedy"},
    {"matching", "propose-accept"},
    {"mis", "decomposition-sweep"},
    {"mis", "luby"},
    {"ruling-set", "aglp-bit-split"},
    {"sinkless-orientation", "propose-repair"},
    {"sinkless-orientation", "short-cycle-det"},
    {"weak-coloring", "pointer-parity"}};
const std::vector<std::string> kFamilies = {
    "cycle", "regular", "high-girth", "torus", "tree", "bounded",
    "file:tests/data/p2p-sample.pg"};
const std::vector<std::size_t> kSizes = {256, 1024, 4096};
// Set-up takes well under a second, so it repeats often enough for a
// steady median.
constexpr int kSetupReps = 15;

// Everything of a row that must repeat exactly for a fixed seed.
std::string row_key(const SweepRow& row) {
  std::ostringstream out;
  out << row.problem << '/' << row.algo << '@' << row.graph.family << ':'
      << row.nodes << ':' << row.edges << ':' << row_status_name(row.status)
      << ':' << row.rounds << ';';
  return out.str();
}

class Landscape {
 public:
  explicit Landscape(const Config& cfg) : cfg_(cfg) {
    plan_.pairs = kPairs;
    for (const std::string& family : kFamilies) {
      for (const std::size_t n : kSizes) {
        plan_.graphs.push_back({family, n, 3, cfg.seed});
      }
    }
    plan_.options.seed = cfg.seed;
    plan_.options.ids = IdStrategy::kShuffled;
    plan_.threads = cfg.threads;
    // The distinct instances of the menu, as run_batch dedupes them.
    std::set<build::FamilyKey> seen;
    for (const GraphSpec& s : plan_.graphs) {
      if (seen.insert(build::canonical_key(s.family, s.nodes, s.degree,
                                           s.seed))
              .second) {
        distinct_.push_back(s);
      }
    }
  }

  Raw run() {
    setup();
    // One untimed sweep, so the pool's per-thread buffers and the allocator
    // are warm before the first measured sweep.
    (void)run_phase(false, 0);
    if (cfg_.trace) {
      raw_.phases.push_back(run_phase(false, cfg_.seconds / 2));
      raw_.phases.push_back(run_phase(true, cfg_.seconds / 2));
      raw_.spans = tracer_.take();
    } else {
      raw_.phases.push_back(run_phase(false, cfg_.seconds));
    }
    raw_.layers.emplace_back(
        "graph_cache.hit_ratio",
        static_cast<double>(hits_) / static_cast<double>(hits_ + misses_));
    return std::move(raw_);
  }

 private:
  // Registry bootstrap, pool start-up and one menu build, several times.
  void setup() {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      GraphCache::instance().clear();
      const std::int64_t t0 = now_ns();
      (void)AlgorithmRegistry::instance();
      build_menu(0);
      raw_.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  }

  // Builds each distinct menu instance through the GraphCache, in parallel
  // the way run_batch resolves its menu; with `op` != 0 each build is a span.
  void build_menu(std::uint64_t op) {
    parallel_for(0, distinct_.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const GraphSpec& s = distinct_[i];
        const std::int64_t t0 = now_ns();
        (void)GraphCache::instance().get_or_build(s.family, s.nodes, s.degree,
                                                  s.seed);
        if (op != 0) {
          tracer_.add({tracer_.next_id(), op, op,
                       build::is_file_family(s.family) ? "store.load"
                                                       : "graph.build",
                       t0, now_ns()});
        }
      }
    });
  }

  Phase run_phase(bool traced, double seconds) {
    Phase phase;
    phase.traced = traced;
    const std::int64_t start = now_ns();
    do {
      phase.ops.push_back(traced ? traced_sweep() : untraced_sweep());
    } while (static_cast<double>(now_ns() - start) / 1e9 < seconds);
    phase.wall_s = static_cast<double>(now_ns() - start) / 1e9;
    return phase;
  }

  OpRecord untraced_sweep() {
    GraphCache::instance().clear();
    const std::int64_t t0 = now_ns();
    const SweepOutcome outcome = run_batch(plan_);
    const std::string json = to_json(outcome);
    const std::int64_t t1 = now_ns();
    hits_ += outcome.cache_hits;
    misses_ += outcome.cache_misses;
    return record(outcome, json, ms_between(t0, t1), false);
  }

  OpRecord traced_sweep() {
    GraphCache::instance().clear();
    const std::int64_t t0 = now_ns();
    SweepOutcome outcome;
    std::string json;
    {
      ScopedSpan op(tracer_, "op:sweep", 0, 0);
      build_menu(op.id());
      ExecutionPlan plan = plan_;
      {
        ScopedSpan batch(tracer_, "run_batch", op.id(), op.id());
        const std::uint64_t parent = batch.id();
        plan.on_row = [&](std::size_t, const SweepRow& row) {
          const std::int64_t end = now_ns();
          tracer_.add({tracer_.next_id(), parent, op.id(),
                       "row:" + row.problem + "/" + row.algo,
                       end - static_cast<std::int64_t>(row.wall_ns_median),
                       end});
        };
        outcome = run_batch(plan);
      }
      ScopedSpan render(tracer_, "to_json", op.id(), op.id());
      json = to_json(outcome);
    }
    const std::int64_t t1 = now_ns();
    return record(outcome, json, ms_between(t0, t1), true);
  }

  OpRecord record(const SweepOutcome& outcome, const std::string& json,
                  double ms, bool traced) {
    OpRecord op{.kind = "sweep", .ms = ms, .ok = !json.empty()};
    std::string rows;
    for (const SweepRow& row : outcome.rows) {
      rows += row_key(row);
      op.rounds += row.rounds;
      if (row.ok()) op.edges += row.edges;
      if (row.failed()) {
        ++op.failed_rows;
        raw_.errors.push_back(row.problem + "/" + row.algo + " @" +
                              row.graph.family + " n=" +
                              std::to_string(row.graph.nodes) + ": " +
                              status_cell(row));
      }
    }
    op.rows = outcome.rows.size();
    op.ok = op.ok && op.failed_rows == 0;
    if (rows_.empty()) {
      rows_ = rows;
      raw_.local_rounds = op.rounds;
      raw_.outputs_digest = fnv1a(rows_);
    } else if (rows != rows_) {
      if (traced) {
        throw TraceMismatch("traced sweep's rows differ from the untraced "
                            "sweep's");
      }
      raw_.errors.push_back("sweep rows changed between identical sweeps");
    }
    return op;
  }

  const Config& cfg_;
  ExecutionPlan plan_;
  std::vector<GraphSpec> distinct_;
  Raw raw_;
  Tracer tracer_;
  std::string rows_;  // row keys of the first sweep
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace

Raw run_landscape(const Config& cfg) { return Landscape(cfg).run(); }

}  // namespace perfbench
