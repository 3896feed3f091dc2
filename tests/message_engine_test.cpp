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
//  * steady-state zero allocations per round, via a global operator-new
//    counting hook;
//  * a round-budget violation throws ContractViolation and leaves the
//    engine (and the pool, when the phases ran pooled) fit for the next
//    run;
//  * the wake-up calendar: both calendar layouts pop rounds in order, idle
//    rounds are skipped but counted, every node steps exactly once, a late
//    sleeper reads a long-drained neighbor's final message, a wake round
//    past the budget throws, pooled ≡ serial (also when pooled rounds
//    walk a busy-word list far shorter than the word count, between
//    serial ones), and no per-round allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
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
#include "local/wake_calendar.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "golden.hpp"

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

std::string render_golden(const std::vector<GoldenRow>& rows) {
  std::vector<std::string> lines;
  for (const GoldenRow& r : rows) {
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    std::ostringstream line;
    line << "{\"problem\": \"" << r.problem << "\", \"algo\": \"" << r.algo
         << "\", \"family\": \"" << r.family << "\", \"nodes\": " << r.nodes
         << ", \"seed\": " << r.seed << ", \"fingerprint\": \"" << fp << "\"}";
    lines.push_back(line.str());
  }
  return golden::rows_json(lines);
}

TEST_F(EngineTest, GoldenLabelingsMatchCommittedFingerprints) {
  exec_context().threads = 1;
  std::vector<GoldenRow> rows = golden_menu();
  compute_fingerprints(rows);
  golden::expect_matches(golden::data_path("engine_golden.json"),
                         render_golden(rows));
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
      golden::data_path("p2p-sample.txt");
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
  const std::string path = golden::data_path("engine_reference_map.json");
  golden::expect_matches(path, golden::rows_json(lines));
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

// ---- wake-up calendar ------------------------------------------------------

TEST(WakeCalendarTest, BothLayoutsPopRoundsInAscendingOrder) {
  // 0 = not sleeping. Rounds 3 and 9 share sleepers; round 5 has one.
  std::vector<std::uint32_t> wake = {0, 9, 3, 0, 3, 5, 9, 3};
  const auto drain = [](WakeCalendar cal) {
    std::vector<std::pair<std::int64_t, std::vector<NodeId>>> out;
    while (!cal.empty()) {
      out.push_back({cal.next_round(), {}});
      cal.pop([&](NodeId v) { out.back().second.push_back(v); });
    }
    EXPECT_EQ(cal.next_round(), WakeCalendar::kNever);
    return out;
  };
  const std::vector<std::pair<std::int64_t, std::vector<NodeId>>> expected =
      {{3, {2, 4, 7}}, {5, {5}}, {9, {1, 6}}};
  // Largest round 9 <= kDenseFactor * 8: the counting sort.
  const WakeCalendar dense(wake);
  EXPECT_EQ(dense.bytes(), (6 + 11) * sizeof(std::uint32_t));  // ids + R+2
  EXPECT_EQ(drain(dense), expected);

  // A round far past kDenseFactor * n falls back to sorted keys.
  wake.push_back(1000000);
  const WakeCalendar sparse(wake);
  EXPECT_EQ(sparse.bytes(), 7 * sizeof(std::uint64_t));
  auto sparse_expected = expected;
  sparse_expected.push_back({1000000, {8}});
  EXPECT_EQ(drain(sparse), sparse_expected);

  EXPECT_TRUE(WakeCalendar(std::vector<std::uint32_t>(4, 0)).empty());
}

// A toy final-only rule on the calendar: v sleeps until wake[v], then folds
// its present neighbors' final values into its own, halts, and broadcasts
// that final value.
struct WakeFold {
  using Message = std::uint64_t;
  static constexpr bool kUniformSend = true;

  std::vector<int> wake;
  std::vector<std::uint64_t> value;  // 0 = undecided
  std::vector<int> stepped_in;       // round of v's step, -1 = none yet
  std::vector<int> steps;            // step() calls per node
  std::vector<int> heard;            // present inbox slots at v's step

  explicit WakeFold(std::vector<int> wake_in)
      : wake(std::move(wake_in)),
        value(wake.size(), 0),
        stepped_in(wake.size(), -1),
        steps(wake.size(), 0),
        heard(wake.size(), 0) {}

  int wake_round(NodeId v) const { return wake[v]; }
  std::optional<Message> send(NodeId v, int, int) {
    if (value[v] == 0) return std::nullopt;
    return value[v];
  }
  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ v;
    for (const auto& m : inbox) {
      if (m) ++heard[v];
      h = h * 1099511628211ull + (m ? *m : 7);
    }
    value[v] = h | 1;
    stepped_in[v] = round;
    ++steps[v];
  }
  bool done(NodeId v) const { return value[v] != 0; }
};

static_assert(kEngineCalendar<WakeFold>);
static_assert(!kEngineCalendar<Countdown>);

// Breaks the final-only promise: sends while still undecided.
struct EagerWakeFold : WakeFold {
  using WakeFold::WakeFold;
  std::optional<Message> send(NodeId v, int, int) { return v + 1; }
};

TEST_F(EngineTest, CalendarRefusesSendsBeforeDone) {
  exec_context().threads = 1;
  const Graph g = build::path(2);
  EagerWakeFold alg({1, 3});
  EXPECT_THROW(run_message_rounds(g, alg, 10), ContractViolation);
}

TEST_F(EngineTest, CalendarSkipsIdleRoundsButCountsThem) {
  exec_context().threads = 1;
  const Graph g = build::path(6);
  const std::vector<int> wake = {1, 5, 5, 40, 41, 300};
  WakeFold alg(wake);
  MessageEngineStats stats;
  EXPECT_EQ(run_message_rounds(g, alg, 300, &stats), 300);
  EXPECT_EQ(stats.rounds, 300);
  EXPECT_EQ(stats.node_steps, 6);
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(alg.stepped_in[v], wake[v]) << v;
    EXPECT_EQ(alg.steps[v], 1) << v;
  }
  // Executed rounds: 1, 2 (node 0 drains), 5, 6, 40, 41, 42, 300 — three
  // serial phases each (send, step, rebuild; sticky presence is never
  // cleared). Every other round is skipped without a phase.
  EXPECT_EQ(stats.serial_phases, 3 * 8);
  EXPECT_EQ(stats.pooled_phases, 0);
  // Node 2 woke with node 1 (nothing final yet); node 3 heard node 2.
  EXPECT_EQ(alg.heard[2], 0);
  EXPECT_EQ(alg.heard[3], 1);
}

TEST_F(EngineTest, LateSleeperReadsLongDrainedNeighborsFinalMessage) {
  exec_context().threads = 1;
  // Node 0 steps in round 1, drains in round 2 and is silent afterwards;
  // node 1 wakes 1000 rounds after that drain round.
  const Graph g = build::path(2);
  WakeFold alg({1, 1002});
  EXPECT_EQ(run_message_rounds(g, alg, 1002), 1002);
  EXPECT_EQ(alg.heard[1], 1);
  // Node 1's fold over exactly that one message.
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ 1u;
  h = h * 1099511628211ull + alg.value[0];
  EXPECT_EQ(alg.value[1], h | 1);
}

TEST_F(EngineTest, WakeRoundPastBudgetThrowsAndEngineIsReusable) {
  // 4096 nodes = 64 frontier words, so at 4 threads round 1 pools before
  // the calendar's jump to round 1e6 trips the budget.
  const Graph g = build::family("cycle", 4096, 3, 11);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec_context().threads = threads;
    std::vector<int> wake(g.num_nodes(), 1);
    wake[17] = 1000000;
    WakeFold late(wake);
    EXPECT_THROW(run_message_rounds(g, late, 100), ContractViolation);

    wake[17] = 100;
    WakeFold fits(wake);
    MessageEngineStats stats;
    EXPECT_EQ(run_message_rounds(g, fits, 100, &stats), 100);
    EXPECT_EQ(stats.node_steps, static_cast<std::int64_t>(g.num_nodes()));
    EXPECT_EQ(stats.pooled_phases > 0, threads > 1);
  }
}

TEST_F(EngineTest, CalendarSerialEqualsParallelAtPoolingScale) {
  // 4096 nodes: the early rounds wake ~200 nodes over most of the 64
  // frontier words and pool at 4 threads; the sparse late wakers run
  // serial rounds after pooled ones, on the busy-word list those compacted.
  const Graph g = build::family("regular", 4096, 3, 17);
  std::vector<int> wake(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    wake[v] = v % 512 == 0 ? 100 + static_cast<int>(v / 512)
                           : 1 + static_cast<int>((v * 2654435761u) % 20);
  const auto run_at = [&](int threads, MessageEngineStats& stats) {
    exec_context().threads = threads;
    WakeFold alg(wake);
    const int rounds = run_message_rounds(g, alg, 200, &stats);
    EXPECT_EQ(rounds, 107);
    return alg;
  };
  MessageEngineStats s1, s4;
  const WakeFold serial = run_at(1, s1);
  const WakeFold parallel = run_at(4, s4);
  EXPECT_EQ(serial.value, parallel.value);
  EXPECT_EQ(serial.stepped_in, parallel.stepped_in);
  EXPECT_EQ(serial.stepped_in, wake);
  EXPECT_EQ(s1.node_steps, static_cast<std::int64_t>(g.num_nodes()));
  EXPECT_EQ(s1.node_steps, s4.node_steps);
  EXPECT_EQ(s1.node_sends, s4.node_sends);
  EXPECT_EQ(s1.pooled_phases, 0);
  EXPECT_GT(s4.pooled_phases, 0);
  EXPECT_GT(s4.serial_phases, 0);
}

TEST_F(EngineTest, PooledRoundsWalkAShortBusyListAtScale) {
  // 2^16 nodes = 1,024 frontier words, of which a round keeps at most ~100
  // busy: pooled rounds walk a list far shorter than the word count, and
  // every wake round merges fresh words into the list after the rounds
  // that compacted it, pooled or serial. Chosen word k (a scattered
  // permutation of the words) holds three wakers; every other node is
  // done from the start and never joins the frontier.
  const Graph g = build::family("regular", 65536, 3, 29);
  const std::size_t words = g.num_nodes() / 64;
  std::vector<int> wake(g.num_nodes(), 0);
  const auto wake_word = [&](std::size_t k, int round) {
    const std::size_t w = (k * 389) % words;
    for (const std::size_t b : {k * 7 % 64, (k * 7 + 21) % 64,
                                (k * 7 + 42) % 64})
      wake[w * 64 + b] = round;
  };
  // Rounds 1-5: 50 fresh words wake per round, next to the 50 draining.
  for (std::size_t k = 0; k < 250; ++k)
    wake_word(k, 1 + static_cast<int>(k % 5));
  for (std::size_t k = 250; k < 260; ++k) wake_word(k, 8);    // thin: serial
  for (std::size_t k = 260; k < 360; ++k) wake_word(k, 12);   // pooled again
  for (std::size_t k = 360; k < 365; ++k) wake_word(k, 15);   // serial again
  std::vector<int> expected_steps(g.num_nodes(), -1);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (wake[v] != 0) expected_steps[v] = wake[v];

  const auto run_at = [&](int threads, MessageEngineStats& stats) {
    exec_context().threads = threads;
    WakeFold alg(wake);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (wake[v] == 0) alg.value[v] = 1;  // done before round 1
    EXPECT_EQ(run_message_rounds(g, alg, 100, &stats), 15);
    return alg;
  };
  MessageEngineStats s1, s4;
  const WakeFold serial = run_at(1, s1);
  const WakeFold parallel = run_at(4, s4);
  EXPECT_EQ(serial.stepped_in, expected_steps);
  EXPECT_EQ(serial.value, parallel.value);
  EXPECT_EQ(serial.stepped_in, parallel.stepped_in);
  EXPECT_EQ(s1.node_steps, 3 * 365);
  EXPECT_EQ(s1.node_steps, s4.node_steps);
  EXPECT_EQ(s1.node_sends, s4.node_sends);
  // Executed rounds 1-6 and 12-13 pool at 4 threads (50-100 busy words);
  // rounds 8-9 and 15 run serial (10 and 5; the run ends without round
  // 15's drain round, as no node is left to read it). Three phases each.
  EXPECT_EQ(s1.pooled_phases, 0);
  EXPECT_EQ(s1.serial_phases, 3 * 11);
  EXPECT_EQ(s4.pooled_phases, 3 * 8);
  EXPECT_EQ(s4.serial_phases, 3 * 3);
}

TEST_F(EngineTest, CalendarMakesNoPerRoundAllocation) {
  exec_context().threads = 1;
  const Graph g = build::family("regular", 1024, 3, 7);
  const auto allocs_for_classes = [&](int k) {
    std::vector<int> wake(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      wake[v] = 1 + static_cast<int>(v % static_cast<NodeId>(k));
    WakeFold alg(wake);
    const std::size_t before = g_heap_allocs.load();
    EXPECT_EQ(run_message_rounds(g, alg, k + 1), k);
    return g_heap_allocs.load() - before;
  };
  // 12x the rounds (and wake classes) costs zero extra allocations: the
  // calendar, the busy-word list and its merge buffer are run-scoped.
  const std::size_t short_run = allocs_for_classes(8);
  const std::size_t long_run = allocs_for_classes(96);
  EXPECT_EQ(short_run, long_run);
  EXPECT_LE(long_run, 16u);
}

}  // namespace
}  // namespace padlock
