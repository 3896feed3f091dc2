// E7 — micro benchmarks, thread-pooled: one run_batch sweep over every
// registered (problem, algorithm) pair (solve + verification end to end
// through the unified Runner API — new registrations join automatically)
// plus a run_scenarios batch over the substrate hot paths (graph builders,
// checker, gadget/path verifiers, power/line graphs, padded-instance
// serialization).
//
// Usage: bench_micro [--threads N] [--repeat R] [--sizes a,b,...]
//                    [--engine-max-exp E] [--json PATH] [--no-json]
//
// --engine-max-exp caps the message-engine size ramp at n = 2^E (default
// 22; CI passes 14 so the gate stays fast while local runs measure the
// full memory-bound regime).
//
// Wall-clock results are written machine-readably to BENCH_micro.json
// (pair, n, rounds, wall_ns, threads) so the perf trajectory accumulates
// across commits; the total wall line at the end is the number to compare
// across --threads settings (the sweep parallelizes across runs, so
// --threads $(nproc) vs --threads 1 measures the pool's scaling).
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algo/luby_mis.hpp"
#include "algo/matching.hpp"
#include "core/graph_cache.hpp"
#include "core/padded_graph.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "gadget/path_psi.hpp"
#include "gadget/verifier.hpp"
#include "graph/builders.hpp"
#include "graph/line_graph.hpp"
#include "graph/power_graph.hpp"
#include "io/serialize.hpp"
#include "lcl/checker.hpp"
#include "lcl/problems/sinkless_orientation.hpp"
#include "store/pg.hpp"
#include "support/parse.hpp"
#include "local/engine.hpp"
#include "local/message_engine.hpp"
#include "support/table.hpp"

using namespace padlock;

namespace {

// The engine-bound ramp rule: one word per port per round, an add per
// message, and a halting schedule that halves the frontier every round —
// the Luby/propose-accept decay regime the active-set engine is built
// for. The rule itself does almost no per-node work, so its rows measure
// the executor rather than any algorithm.
struct GeometricHalt {
  using Message = std::uint64_t;
  static constexpr bool kUniformSend = true;  // broadcast each round
  std::vector<std::uint64_t> acc;
  std::vector<std::int32_t> halt_round;
  std::vector<std::uint8_t> halted;

  explicit GeometricHalt(std::size_t n)
      : acc(n, 1), halt_round(n, 1), halted(n, 0) {
    for (std::size_t v = 0; v < n; ++v)
      halt_round[v] = 1 + std::countr_one(static_cast<unsigned>(v));
  }
  std::optional<Message> send(NodeId v, int, int) { return acc[v]; }
  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    std::uint64_t s = acc[v];
    for (const auto& m : inbox)
      if (m) s += *m;
    acc[v] = s + static_cast<std::uint64_t>(round);
    if (round >= halt_round[v]) halted[v] = 1;
  }
  bool done(NodeId v) const { return halted[v] != 0; }
};

// Substrate hot paths as scenario tasks. Setup (instance construction) is
// hoisted into shared_ptr captures at task-creation time so each timed
// body exercises only the path its label names; bodies are self-contained
// so the pool may run them concurrently.
std::vector<ScenarioTask> substrate_scenarios(int engine_max_exp) {
  std::vector<ScenarioTask> tasks;
  // The strict gather hot path through the flat-ball engine: a radius-2
  // rule at two sizes. These rows are what the CI bench-regression gate
  // watches — this is the path the epoch-stamped BallScratch took from
  // hash-map materialization to flat slab scans.
  for (const std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 14}) {
    const auto g = GraphCache::instance().get_or_build("regular", n, 3, 13);
    tasks.push_back(
        {"gather/strict/r2/n=" + std::to_string(n), [g](SweepRow& row) {
           NodeMap<std::uint64_t> sink(*g, 0);  // per-node slots only
           const RoundReport rep =
               run_gather(*g, [&](LocalView& view, NodeId v) {
                 view.extend(2);
                 std::uint64_t acc = 0;
                 for (int p = 0; p < view.degree(v); ++p) {
                   const NodeId w = view.neighbor(v, p);
                   for (int q = 0; q < view.degree(w); ++q)
                     acc += view.neighbor(w, q);
                 }
                 sink[v] = acc;
               });
           row.nodes = g->num_nodes();
           row.rounds = rep.rounds;
         }});
  }
  // The message-engine size ramp (cycle + regular + the real-graph file
  // sample): the engine-bound geometric-halt rule plus the two deepest
  // migrated state machines (Luby, propose-accept matching) at
  // n = 2^12..2^engine_max_exp. The geometric-halt rows are the engine
  // gauge (the rule costs nothing, so they measure executor overhead); the
  // luby/matching rows are bounded by each algorithm's own per-node
  // compute. Every engine row carries the edge count (feeding the derived
  // edges_per_sec column) and the engine's resident footprint in its stats
  // object.
  const auto engine_rows = [&tasks](const std::shared_ptr<const Graph>& g,
                                    const std::shared_ptr<IdMap>& ids,
                                    const std::string& suffix) {
    const auto fill = [g](SweepRow& row, const MessageEngineStats& es,
                          int rounds) {
      row.nodes = g->num_nodes();
      row.edges = g->num_edges();
      row.rounds = rounds;
      es.surface(row.stats);
    };
    tasks.push_back({"engine/v3/geometric-halt" + suffix,
                     [g, fill](SweepRow& row) {
                       GeometricHalt alg(g->num_nodes());
                       MessageEngineStats es;
                       const int rounds = run_message_rounds(
                           *g, alg, static_cast<std::int64_t>(64), &es);
                       fill(row, es, rounds);
                     }});
    tasks.push_back({"engine/v3/luby" + suffix,
                     [g, ids, fill](SweepRow& row) {
                       MessageEngineStats es;
                       const auto res = luby_mis(*g, *ids, 7, &es);
                       fill(row, es, res.rounds);
                     }});
    tasks.push_back({"engine/v3/matching" + suffix,
                     [g, ids, fill](SweepRow& row) {
                       MessageEngineStats es;
                       const auto res = randomized_matching(*g, *ids, 7, &es);
                       fill(row, es, res.rounds);
                     }});
  };
  for (const char* family : {"cycle", "regular"}) {
    for (int exp = 12; exp <= engine_max_exp; exp += 2) {
      const std::size_t n = std::size_t{1} << exp;
      const auto g = GraphCache::instance().get_or_build(family, n, 3, 13);
      const auto ids = std::make_shared<IdMap>(shuffled_ids(*g, 5));
      const std::string suffix =
          "/" + std::string(family) + "/n=" + std::to_string(n);
      engine_rows(g, ids, suffix);
    }
  }
  // The same three rules on the committed real-graph sample (skewed
  // degrees, no synthetic regularity).
  {
    const std::string sample = "tests/data/p2p-sample.txt";
    if (std::filesystem::exists(sample)) {
      const auto g =
          GraphCache::instance().get_or_build("file:" + sample, 0, 0, 0);
      const auto ids = std::make_shared<IdMap>(shuffled_ids(*g, 5));
      const std::string suffix =
          "/p2p-sample/n=" + std::to_string(g->num_nodes());
      engine_rows(g, ids, suffix);
    }
  }
  for (const std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 14}) {
    tasks.push_back({"build/random-regular/n=" + std::to_string(n),
                     [n](SweepRow& row) {
                       const Graph g = build::random_regular(n, 3, 1);
                       row.nodes = g.num_nodes();
                       row.edges = g.num_edges();
                     }});
    {
      auto g = std::make_shared<Graph>(build::random_regular(n, 3, 5));
      RunOptions opts;
      opts.seed = 7;
      opts.check = false;
      auto solution = std::make_shared<NeLabeling>(
          run("sinkless-orientation", "propose-repair", *g, opts).output);
      tasks.push_back({"check/ne-lcl/n=" + std::to_string(n),
                       [g, solution](SweepRow& row) {
                         const NeLabeling input(*g);
                         const SinklessOrientation lcl;
                         const auto chk =
                             check_ne_lcl(*g, lcl, input, *solution);
                         row.nodes = g->num_nodes();
                         row.status = chk.ok ? RowStatus::kOk
                                             : RowStatus::kVerifyFailed;
                       }});
    }
  }
  for (const int height : {6, 9}) {
    auto inst = std::make_shared<GadgetInstance>(build_gadget(3, height));
    tasks.push_back({"gadget/verifier/h=" + std::to_string(height),
                     [inst](SweepRow& row) {
                       const auto res =
                           run_gadget_verifier(inst->graph, inst->labels);
                       row.nodes = inst->graph.num_nodes();
                       row.status = res.found_error ? RowStatus::kVerifyFailed
                                                    : RowStatus::kOk;
                       row.rounds = res.report.rounds;
                     }});
  }
  for (const int length : {64, 512}) {
    auto inst = std::make_shared<GadgetInstance>(build_path_gadget(3, length));
    tasks.push_back({"gadget/path-verifier/len=" + std::to_string(length),
                     [inst](SweepRow& row) {
                       const auto res =
                           run_path_verifier_ne(inst->graph, inst->labels);
                       row.nodes = inst->graph.num_nodes();
                       row.status = res.found_error ? RowStatus::kVerifyFailed
                                                    : RowStatus::kOk;
                     }});
  }
  for (const std::size_t n : {std::size_t{64}, std::size_t{256}}) {
    auto base = std::make_shared<Graph>(build::random_regular_simple(n, 3, 9));
    tasks.push_back({"build/padded-instance/base=" + std::to_string(n),
                     [base](SweepRow& row) {
                       const NeLabeling input(*base);
                       const auto pb = build_padded_instance(*base, input, 3, 5);
                       row.nodes = pb.instance.graph.num_nodes();
                     }});
  }
  for (const std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 13}) {
    auto g9 = std::make_shared<Graph>(build::random_regular_simple(n, 3, 9));
    auto g10 = std::make_shared<Graph>(build::random_regular_simple(n, 3, 10));
    tasks.push_back({"graph/power-square/n=" + std::to_string(n),
                     [g9](SweepRow& row) {
                       const PowerGraph p = power_graph(*g9, 2);
                       row.edges = p.graph.num_edges();
                     }});
    tasks.push_back({"graph/line-graph/n=" + std::to_string(n),
                     [g10](SweepRow& row) {
                       const LineGraph lg = line_graph(*g10);
                       row.edges = lg.graph.num_edges();
                     }});
  }
  for (const std::size_t n : {std::size_t{32}, std::size_t{128}}) {
    const Graph base = build::random_regular(n, 3, 11);
    auto pb = std::make_shared<PaddedBuild>(
        build_padded_instance(base, NeLabeling(base), 3, 4));
    tasks.push_back(
        {"io/padded-roundtrip/base=" + std::to_string(n),
         [pb](SweepRow& row) {
           std::stringstream ss;
           io::write_padded_instance(ss, pb->instance);
           const PaddedInstance back = io::read_padded_instance(ss);
           row.nodes = back.graph.num_nodes();
         }});
  }
  // Ingestion hot paths: the same ~49k-edge instance through the three
  // ways a sweep can obtain a graph — parsing + normalizing a text edge
  // list, mmap-loading the converted .pg store (checksum + adopt, no
  // decode), and rebuilding the synthetic family from scratch. The mmap
  // row is what every file: family pays after converting once; the
  // regression gate keeps it an order of magnitude under the text parse.
  {
    const std::size_t n = std::size_t{1} << 15;
    const Graph g = build::random_regular_simple(n, 3, 17);
    const std::string dir =
        (std::filesystem::temp_directory_path() / "padlock_bench_store")
            .string();
    std::filesystem::create_directories(dir);
    const auto txt = std::make_shared<std::string>(dir + "/bench-graph.txt");
    const auto pg = std::make_shared<std::string>(dir + "/bench-graph.pg");
    {
      std::ofstream out(*txt);
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const auto [u, v] = g.endpoints(e);
        out << u << '\t' << v << '\n';
      }
    }
    store::write_pg(*pg, g);
    tasks.push_back({"store/text-parse/n=" + std::to_string(n),
                     [txt](SweepRow& row) {
                       const Graph loaded = store::load_graph_file(*txt);
                       row.nodes = loaded.num_nodes();
                       row.edges = loaded.num_edges();
                     }});
    tasks.push_back({"store/mmap-load/n=" + std::to_string(n),
                     [pg](SweepRow& row) {
                       const Graph loaded = store::load_pg(*pg);
                       row.nodes = loaded.num_nodes();
                       row.edges = loaded.num_edges();
                     }});
    tasks.push_back({"store/build-synthetic/n=" + std::to_string(n),
                     [n](SweepRow& row) {
                       const Graph built =
                           build::random_regular_simple(n, 3, 17);
                       row.nodes = built.num_nodes();
                       row.edges = built.num_edges();
                     }});
  }
  return tasks;
}

void print_rows(const char* title, const SweepOutcome& outcome) {
  std::string header = "threads=" + std::to_string(outcome.threads);
  // Only run_batch outcomes go through the graph cache.
  if (outcome.cached) header += ", " + cache_note(outcome);
  std::printf("\n%s (%s)\n", title, header.c_str());
  Table t({"workload", "n", "rounds", "ok", "wall min (us)", "wall med (us)"});
  for (const SweepRow& row : outcome.rows) {
    if (row.skipped()) continue;
    const std::string name =
        row.algo.empty() ? row.problem : row.problem + "/" + row.algo;
    t.add_row({name + (row.graph.family.empty()
                           ? ""
                           : " @" + row.graph.family),
               std::to_string(row.nodes), std::to_string(row.rounds),
               status_cell(row), fmt(row.wall_ns_min / 1e3, 1),
               fmt(row.wall_ns_median / 1e3, 1)});
  }
  t.print();
}

}  // namespace

// Strict integer option parsing via the shared helper (support/parse.hpp):
// the whole token must be a base-10 integer in [lo, hi] (atoi-style
// trailing garbage like "14abc" or "4x" is a usage error, not a silent
// 14). Returns false with a usage-style message on stderr.
bool parse_int_opt(const char* flag, const char* token, long lo, long hi,
                   int* out) {
  const std::optional<long long> v = parse_integer(token, lo, hi);
  if (!v) {
    std::fprintf(stderr, "bench_micro: %s expects an integer in %ld..%ld, "
                 "got '%s'\n",
                 flag, lo, hi, token);
    return false;
  }
  *out = static_cast<int>(*v);
  return true;
}

int main(int argc, char** argv) {
  int threads = 0;  // 0 = hardware concurrency
  int repeat = 3;
  int engine_max_exp = 22;
  std::vector<std::size_t> sizes{std::size_t{1} << 10};
  std::string json_path = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--threads") {
      if (!parse_int_opt("--threads", next(), 0, 65536, &threads)) return 2;
    }
    else if (arg == "--repeat") {
      if (!parse_int_opt("--repeat", next(), 1, 1000000, &repeat)) return 2;
    }
    else if (arg == "--engine-max-exp") {
      if (!parse_int_opt("--engine-max-exp", next(), 12, 26, &engine_max_exp))
        return 2;
    }
    else if (arg == "--json") json_path = next();
    else if (arg == "--no-json") json_path.clear();
    else if (arg == "--sizes") {
      sizes.clear();
      std::stringstream ss(next());
      for (std::string tok; std::getline(ss, tok, ',');) {
        const std::optional<long long> n =
            parse_integer(tok, 1, 1LL << 26);
        if (!n) {
          std::fprintf(stderr,
                       "bench_micro: --sizes expects positive integers, "
                       "got '%s'\n",
                       tok.c_str());
          return 2;
        }
        sizes.push_back(static_cast<std::size_t>(*n));
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro [--threads N] [--repeat R] "
                   "[--sizes a,b,...] [--engine-max-exp E] "
                   "[--json PATH] [--no-json]\n");
      return 2;
    }
  }
  exec_context().threads = threads;

  // The registry sweep: every pair × {cycle, random cubic} × sizes. The
  // color-reduce baseline is O(id_space) rounds, so it gets its own plan
  // capped at small instances instead of a silent skip.
  ExecutionPlan plan;
  for (const auto& [problem, algo] : AlgorithmRegistry::instance().pairs()) {
    if (algo->name == "color-reduce") continue;
    plan.pairs.emplace_back(problem->name, algo->name);
  }
  for (const std::size_t n : sizes) {
    plan.graphs.push_back({"cycle", n, 3, 5});
    plan.graphs.push_back({"regular", n, 3, 5});
  }
  plan.repeat = repeat;
  const SweepOutcome runners = run_batch(plan);

  ExecutionPlan small;
  for (const auto& [problem, algo] : AlgorithmRegistry::instance().pairs()) {
    if (algo->name == "color-reduce") small.pairs.emplace_back(problem->name,
                                                               algo->name);
  }
  small.graphs.push_back({"cycle", 256, 3, 5});
  small.graphs.push_back({"regular", 256, 3, 5});
  small.repeat = repeat;
  const SweepOutcome baseline = run_batch(small);

  const SweepOutcome substrate = run_scenarios(
      substrate_scenarios(engine_max_exp), repeat);

  print_rows("registry pairs (solve + verify, run_batch)", runners);
  print_rows("linear baselines", baseline);
  print_rows("substrate hot paths (run_scenarios)", substrate);

  const bool all_ok =
      runners.all_ok() && baseline.all_ok() && substrate.all_ok();
  const std::uint64_t total_ns =
      runners.wall_ns + baseline.wall_ns + substrate.wall_ns;
  std::printf("\ntotal wall: %.1f ms across %zu runs, threads=%d, %s\n",
              total_ns / 1e6,
              runners.rows.size() + baseline.rows.size() +
                  substrate.rows.size(),
              runners.threads, all_ok ? "all verified" : "FAILURES");
  const GraphCacheStats cache = GraphCache::instance().stats();
  std::printf("graph cache (process-wide): %llu hits, %llu misses, "
              "%zu entries resident\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              GraphCache::instance().size());

  if (!json_path.empty()) {
    // One merged row set; outcome threads are identical across the
    // batches, wall_ns sums all three, and the cache counters sum over
    // the cached (run_batch) sweeps — the scenario rows carry no menu.
    SweepOutcome merged = runners;
    merged.wall_ns = total_ns;
    merged.cache_hits += baseline.cache_hits;
    merged.cache_misses += baseline.cache_misses;
    merged.rows.insert(merged.rows.end(), baseline.rows.begin(),
                       baseline.rows.end());
    merged.rows.insert(merged.rows.end(), substrate.rows.begin(),
                       substrate.rows.end());
    std::ofstream out(json_path);
    out << to_json(merged);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}
