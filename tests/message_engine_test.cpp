// Property suite for the round engine (local/message_engine.hpp):
//
//  * golden labelings: every migrated round-based pair, run end to end
//    through the registry, reproduces the committed fingerprints in
//    tests/data/engine_golden.json. All rows except matching/propose-accept
//    were captured from the retired bespoke loops before the migration, so
//    they pin bit-identity with the deleted code; the propose-accept rows
//    pin the engine-v2 handshake (the bespoke commit resolved acceptance
//    chains by a global acceptor-index sweep no O(1)-round local rule can
//    express). Regenerate deliberately with PADLOCK_REGEN_GOLDEN=1.
//  * the reference-output map tests/data/engine_reference_map.json: the
//    whole registry × synthetic families × a real file-backed graph ×
//    threads, captured while the retired executors still agreed, so it
//    stands in for them as the oracle of the current executor;
//  * propose-accept matchings are maximal;
//  * serial ≡ parallel bit-identity of engine-driven pairs at a size where
//    the pooled phases actually split into chunks;
//  * drain semantics: a halting node's final sends are delivered exactly
//    once, and long-halted slots read as silence;
//  * steady-state zero allocations per round, via the same global
//    operator-new counting hook as tests/view_property_test.cpp;
//  * a round-budget violation throws ContractViolation and leaves the
//    engine (and the pool, when the phases ran pooled) fit for the next
//    run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "algo/luby_mis.hpp"
#include "algo/matching.hpp"
#include "core/graph_cache.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "lcl/problems/matching.hpp"
#include "local/fingerprint.hpp"
#include "local/message_engine.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

// ---- allocation-counting hook ----------------------------------------------

namespace {
std::atomic<std::size_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace padlock {
namespace {

#ifndef PADLOCK_TEST_DATA_DIR
#error "PADLOCK_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = exec_context(); }
  void TearDown() override { exec_context() = saved_; }

 private:
  ExecContext saved_;
};

// ---- golden labelings ------------------------------------------------------

struct GoldenRow {
  std::string problem, algo, family;
  std::size_t nodes = 0;
  std::uint64_t seed = 0;
  std::uint64_t fingerprint = 0;
};

// The menu mirrors the committed file: migrated pairs × families × sizes ×
// seeds, rows for incompatible (pair, graph) combinations omitted.
std::vector<GoldenRow> golden_menu() {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"mis", "luby"},
      {"matching", "propose-accept"},
      {"matching", "color-greedy"},
      {"ruling-set", "aglp-bit-split"},
      {"weak-coloring", "pointer-parity"},
      {"coloring", "color-reduce"},
      {"coloring", "linial"},
      {"3-coloring", "cole-vishkin"},
  };
  std::vector<GoldenRow> rows;
  for (const auto& [pname, aname] : pairs) {
    const AlgoSpec& algo = AlgorithmRegistry::instance().algo(pname, aname);
    for (const std::string fam : {"cycle", "regular", "path", "torus"}) {
      for (const std::size_t n : {std::size_t{24}, std::size_t{48}}) {
        const Graph g = build::family(fam, n, 3, 13);
        if (algo.precondition && !algo.precondition(g)) continue;
        for (const std::uint64_t seed : {3ull, 9ull}) {
          rows.push_back({pname, aname, fam, n, seed, 0});
        }
      }
    }
  }
  return rows;
}

void compute_fingerprints(std::vector<GoldenRow>& rows) {
  for (GoldenRow& row : rows) {
    const Graph g = build::family(row.family, row.nodes, 3, 13);
    RunOptions opts;
    opts.seed = row.seed;
    const SolveOutcome res = run(row.problem, row.algo, g, opts);
    ASSERT_TRUE(res.ok()) << row.problem << "/" << row.algo << " @"
                          << row.family << " n=" << row.nodes;
    row.fingerprint = labeling_fingerprint(res.output);
  }
}

std::string golden_path() {
  return std::string(PADLOCK_TEST_DATA_DIR) + "/engine_golden.json";
}

std::string render_golden(const std::vector<GoldenRow>& rows) {
  std::ostringstream out;
  out << "{\"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GoldenRow& r = rows[i];
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    out << (i == 0 ? "" : ",\n") << "{\"problem\": \"" << r.problem
        << "\", \"algo\": \"" << r.algo << "\", \"family\": \"" << r.family
        << "\", \"nodes\": " << r.nodes << ", \"seed\": " << r.seed
        << ", \"fingerprint\": \"" << fp << "\"}";
  }
  out << "\n]}\n";
  return out.str();
}

TEST_F(EngineTest, GoldenLabelingsMatchCommittedFingerprints) {
  exec_context().threads = 1;
  std::vector<GoldenRow> rows = golden_menu();
  compute_fingerprints(rows);
  const std::string rendered = render_golden(rows);

  if (std::getenv("PADLOCK_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    out << rendered;
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << golden_path()
                         << " (run with PADLOCK_REGEN_GOLDEN=1)";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), rendered)
      << "engine outputs drifted from the committed golden labelings; if "
         "deliberate, regenerate with PADLOCK_REGEN_GOLDEN=1";
}

// ---- propose-accept matching is maximal -----------------------------------

TEST_F(EngineTest, RandomizedMatchingIsMaximal) {
  exec_context().threads = 1;
  for (const std::string fam : {"cycle", "regular", "path", "torus",
                                "multigraph"}) {
    for (const std::size_t n : {std::size_t{24}, std::size_t{97},
                                std::size_t{512}}) {
      const Graph g = build::family(fam, n, 3, 13);
      for (const std::uint64_t seed : {3ull, 9ull}) {
        const IdMap ids = shuffled_ids(g, seed + 1);
        const MatchingResult res = randomized_matching(g, ids, seed);
        SCOPED_TRACE(fam + " n=" + std::to_string(n));
        EXPECT_TRUE(is_maximal_matching(g, res.in_match));
      }
    }
  }
}

// ---- the reference-output map ----------------------------------------------
// {pair, instance, threads} -> (output fingerprint, rounds, per-node rounds
// fingerprint) for every registered pair on four synthetic families at
// n = 192 and the committed file-backed sample, threads {1, 4}. The
// committed map was captured while the retired v2 executor, the retired
// sharded and loopback substrates and the retired pinned executor still
// agreed bit for bit with inline v3 on every entry, so it carries those
// oracles forward: a thread count that drifts from them fails here, naming
// its key. Every entry keeps the `"shards": 1` field of the era when the
// map also covered shard counts. Regenerate deliberately with
// PADLOCK_REGEN_GOLDEN=1.

std::string hex64(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

std::vector<std::string> reference_map_lines() {
  struct Instance {
    std::string label;
    std::shared_ptr<const Graph> graph;
  };
  std::vector<Instance> instances;
  for (const std::string fam : {"cycle", "regular", "path", "torus"}) {
    instances.push_back(
        {fam, std::make_shared<const Graph>(build::family(fam, 192, 3, 13))});
  }
  const std::string sample =
      std::string(PADLOCK_TEST_DATA_DIR) + "/p2p-sample.txt";
  instances.push_back({"file:p2p-sample",
                       GraphCache::instance().get_or_build(
                           "file:" + sample, 0, 0, 0)});

  std::vector<std::string> lines;
  for (const auto* algo : AlgorithmRegistry::instance().algos()) {
    for (const Instance& inst : instances) {
      if (algo->precondition && !algo->precondition(*inst.graph)) continue;
      for (const int threads : {1, 4}) {
        exec_context().threads = threads;
        RunOptions opts;
        opts.seed = 29;
        const SolveOutcome out =
            run(algo->problem, algo->name, *inst.graph, opts);
        EXPECT_TRUE(out.ok()) << algo->problem << "/" << algo->name;
        std::ostringstream line;
        line << "{\"pair\": \"" << algo->problem << "/" << algo->name
             << "\", \"instance\": \"" << inst.label
             << "\", \"threads\": " << threads << ", \"shards\": 1"
             << ", \"fingerprint\": \"" << hex64(labeling_fingerprint(out.output))
             << "\", \"rounds\": " << out.rounds.rounds
             << ", \"node_rounds\": \""
             << hex64(node_map_fingerprint(out.rounds.node_rounds)) << "\"}";
        lines.push_back(line.str());
      }
    }
  }
  return lines;
}

TEST_F(EngineTest, ReferenceMapMatchesCommittedOutputs) {
  const std::vector<std::string> lines = reference_map_lines();
  const std::string path =
      std::string(PADLOCK_TEST_DATA_DIR) + "/engine_reference_map.json";
  if (std::getenv("PADLOCK_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << "{\"rows\": [\n";
    for (std::size_t i = 0; i < lines.size(); ++i)
      out << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
    out << "]}\n";
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::vector<std::string> committed;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("{\"pair\"", 0) != 0) continue;  // framing lines
    if (line.back() == ',') line.pop_back();
    committed.push_back(line);
  }
  ASSERT_EQ(committed.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], committed[i]) << "reference-map entry " << i;
}

// ---- serial ≡ parallel on engine-driven pairs ------------------------------
// determinism_test covers every registered pair at n=96; this instance is
// large enough that the engine's pooled phases really split into chunks
// (64 busy frontier words: above kEnginePoolMinWords, and four
// kEngineWordGrain chunks).

TEST_F(EngineTest, EngineSerialEqualsParallelAtChunkingScale) {
  const Graph g = build::family("regular", 4096, 3, 17);
  for (const auto& [pname, aname] :
       {std::pair<std::string, std::string>{"mis", "luby"},
        {"matching", "propose-accept"},
        {"ruling-set", "aglp-bit-split"},
        {"coloring", "linial"}}) {
    RunOptions opts;
    opts.seed = 23;
    exec_context().threads = 1;
    const SolveOutcome serial = run(pname, aname, g, opts);
    exec_context().threads = 4;
    const SolveOutcome parallel = run(pname, aname, g, opts);
    SCOPED_TRACE(pname + "/" + aname);
    EXPECT_TRUE(serial.output == parallel.output);
    EXPECT_TRUE(serial.rounds == parallel.rounds);
    EXPECT_EQ(serial.stats.entries, parallel.stats.entries);
  }
}

// ---- drain semantics -------------------------------------------------------
// A node that halts in round r sends once more in round r+1 (its notify
// round) and is silent afterwards. The listener distinguishes all three
// regimes: message present, notify delivered, long-halted silence.

struct DrainProbe {
  using Message = int;
  // Node 0 halts after round 1; node 1 listens for 4 rounds and records
  // per-round presence of node 0's message.
  std::vector<int> heard;   // round -> 1 if a message arrived at node 1
  int rounds_done = 0;
  bool node0_done = false;

  explicit DrainProbe() : heard(8, -1) {}

  std::optional<Message> send(NodeId v, int, int round) {
    if (v == 0) return 100 + round;  // sends while active + one drain round
    return std::nullopt;             // the listener never speaks
  }
  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    if (v == 0) {
      node0_done = true;  // halts at the end of round 1
      return;
    }
    heard[static_cast<std::size_t>(round)] = inbox[0] ? 1 : 0;
    rounds_done = round;
  }
  bool done(NodeId v) const {
    return v == 0 ? node0_done : rounds_done >= 4;
  }
};

TEST_F(EngineTest, HaltedNodeDrainsExactlyOneMoreRound) {
  exec_context().threads = 1;
  GraphBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  DrainProbe alg;
  const int rounds = run_message_rounds(g, alg, 100);
  EXPECT_EQ(rounds, 4);
  EXPECT_EQ(alg.heard[1], 1);  // active round: message delivered
  EXPECT_EQ(alg.heard[2], 1);  // drain round: the final send still lands
  EXPECT_EQ(alg.heard[3], 0);  // retired: silence
  EXPECT_EQ(alg.heard[4], 0);
}

// ---- steady-state zero allocations per round -------------------------------

struct Countdown {
  using Message = std::uint64_t;
  std::vector<std::uint64_t> acc;
  std::vector<std::int32_t> left;
  Countdown(std::size_t n, int k) : acc(n, 1), left(n, k) {}
  std::optional<Message> send(NodeId v, int, int) { return acc[v]; }
  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int) {
    std::uint64_t s = acc[v];
    for (const auto& m : inbox)
      if (m) s += *m;
    acc[v] = s;
    --left[v];
  }
  bool done(NodeId v) const { return left[v] == 0; }
};

TEST_F(EngineTest, ZeroAllocationsPerRoundInSteadyState) {
  exec_context().threads = 1;  // serial phases run on this thread
  const Graph g = build::family("regular", 1024, 3, 7);

  const auto allocs_for_rounds = [&](int k) {
    Countdown alg(g.num_nodes(), k);
    const std::size_t before = g_heap_allocs.load();
    const int rounds = run_message_rounds(g, alg, k + 1);
    EXPECT_EQ(rounds, k);
    return g_heap_allocs.load() - before;
  };

  // All per-round storage is run-scoped and reused, so 12x the rounds
  // costs zero extra allocations.
  const std::size_t short_run = allocs_for_rounds(8);
  const std::size_t long_run = allocs_for_rounds(96);
  EXPECT_EQ(short_run, long_run);
  EXPECT_LE(long_run, 16u);
}

// ---- round-budget violation ------------------------------------------------
// A uniform-send rule that never halts: the guaranteed budget violation
// (local classes cannot carry the static kUniformSend member or the step
// template, so it lives at namespace scope).

struct NeverHalts {
  using Message = std::uint64_t;
  static constexpr bool kUniformSend = true;
  std::optional<Message> send(NodeId v, int, int) { return v; }
  template <class Inbox>
  void step(NodeId, const Inbox&, int) {}
  bool done(NodeId) const { return false; }
};

TEST_F(EngineTest, RoundBudgetViolationThrowsAndEngineIsReusable) {
  // 4096 nodes = 64 frontier words, so at 4 threads the first round runs
  // its phases on the pool before the budget check fires.
  const Graph g = build::family("cycle", 4096, 3, 11);
  const IdMap ids = shuffled_ids(g, 5);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec_context().threads = threads;
    NeverHalts alg;
    EXPECT_THROW(run_message_rounds(g, alg, 1), ContractViolation);

    // The next run on the same thread (and pool) completes cleanly.
    MessageEngineStats stats;
    const MisResult res = luby_mis(g, ids, 7, &stats);
    EXPECT_GT(res.rounds, 0);
    EXPECT_EQ(stats.pooled_phases > 0, threads > 1);
  }
}

}  // namespace
}  // namespace padlock
