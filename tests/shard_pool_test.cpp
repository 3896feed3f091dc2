// Property suite for the pinned multi-pool backend (support/shard_pool.hpp
// + local/engine_pinned.hpp + the shards > 1 dispatch in
// message_engine.hpp):
//
//  * topology discovery is sane everywhere: online >= 1, listed CPUs are
//    distinct and ascending, and a team wider than the allowed CPU set
//    degrades to unpinned workers with identical semantics (the
//    cpuset/taskset-restricted CI case — pinning is a placement hint,
//    never a correctness dependency);
//  * ShardTeam mechanics: run() executes the body once per worker, the
//    sense-reversing barrier actually synchronizes (a fold observes every
//    pre-barrier write), fold runs exclusively exactly once per barrier,
//    teams are reusable across runs, and an exception escaping a
//    barrier-free body is rethrown at run() without killing the team;
//  * the headline invariant: for EVERY registered pair, pinned execution
//    is bit-identical to serial over shards {1, 2, 4, 7} x threads {1, 4}, on
//    synthetic families and the real file-backed sample — this is the
//    TSan anchor for the fused send+step round protocol at
//    {4 threads x 4 shards};
//  * the SIMD step kernel is bit-identical to the scalar oracle
//    (ScopedEngineSimd off), and where the build carries AVX2 the batched
//    path demonstrably runs (simd_batches > 0 on a uniform-send rule);
//  * gauges: pinned runs report shards and cross-shard traffic, plus
//    barrier_ns, pinned_teams (0 on this box iff the team could not
//    be pinned), and numa_local_bytes consistent with pinned_teams;
//  * fault safety: a round-budget violation under the pinned backend
//    surfaces as the same ContractViolation the serial engine throws, and
//    the cached team survives to run the next request cleanly.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algo/luby_mis.hpp"
#include "core/graph_cache.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "local/message_engine.hpp"
#include "support/check.hpp"
#include "support/shard_pool.hpp"
#include "support/thread_pool.hpp"

namespace padlock {
namespace {

#ifndef PADLOCK_TEST_DATA_DIR
#error "PADLOCK_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

// A uniform-send rule that never halts: the guaranteed round-budget
// violation of the fault-safety test (local classes cannot carry the
// static kUniformSend member or the step template, so it lives here).
struct NeverHalts {
  using Message = std::uint64_t;
  static constexpr bool kUniformSend = true;
  std::optional<Message> send(NodeId v, int, int) { return v; }
  template <class Inbox>
  void step(NodeId, const Inbox&, int) {}
  bool done(NodeId) const { return false; }
};

class ShardPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = exec_context(); }
  void TearDown() override { exec_context() = saved_; }

 private:
  ExecContext saved_;
};

// ---- topology --------------------------------------------------------------

TEST_F(ShardPoolTest, TopologyIsSane) {
  const CpuTopology topo = cpu_topology();
  EXPECT_GE(topo.online, 1);
  // Listed CPUs (when the platform exposes a mask) are distinct, ascending,
  // and agree with the count.
  if (!topo.cpus.empty()) {
    EXPECT_EQ(static_cast<int>(topo.cpus.size()), topo.online);
    for (std::size_t i = 1; i < topo.cpus.size(); ++i)
      EXPECT_LT(topo.cpus[i - 1], topo.cpus[i]);
  }
}

TEST_F(ShardPoolTest, OversubscribedTeamDegradesToUnpinnedButWorks) {
  const CpuTopology topo = cpu_topology();
  // More workers than allowed CPUs can never be pinned one-per-CPU; the
  // team must still run correctly (this is also what a taskset-restricted
  // CI lane exercises with a naturally-sized team).
  ShardTeam team(topo.online + 2);
  EXPECT_EQ(team.workers(), topo.online + 2);
  EXPECT_EQ(team.pinned(), 0);
  for (int w = 0; w < team.workers(); ++w)
    EXPECT_FALSE(team.worker_pinned(w));

  std::atomic<int> ran{0};
  team.run([&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), team.workers());
}

// ---- team mechanics --------------------------------------------------------

TEST_F(ShardPoolTest, RunExecutesBodyOncePerWorkerAndIsReusable) {
  ShardTeam team(3);
  EXPECT_EQ(team.workers(), 3);
  for (int iter = 0; iter < 3; ++iter) {
    std::vector<std::atomic<int>> hits(3);
    team.run([&](int w) { hits[static_cast<std::size_t>(w)].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST_F(ShardPoolTest, BarrierSynchronizesAndFoldRunsExclusively) {
  constexpr int kWorkers = 4;
  constexpr int kRounds = 50;
  ShardTeam team(kWorkers);
  // Plain (non-atomic) per-worker slots: the fold reading them and the
  // workers reading the folded total are exactly the happens-before edges
  // the barrier guarantees — under TSan this test is the proof.
  std::vector<std::int64_t> slot(kWorkers, 0);
  std::int64_t folded = 0;
  int folds = 0;
  std::atomic<bool> ok{true};
  team.run([&](int w) {
    for (int r = 1; r <= kRounds; ++r) {
      slot[static_cast<std::size_t>(w)] = w + r;
      team.barrier([&, r] {
        ++folds;  // exclusive: no lock needed
        folded = 0;
        for (const std::int64_t s : slot) folded += s;
        if (folded != kWorkers * r + kWorkers * (kWorkers - 1) / 2)
          ok.store(false);
      });
      // Every worker observes the fold's result after release.
      if (folded != kWorkers * r + kWorkers * (kWorkers - 1) / 2)
        ok.store(false);
      team.barrier();  // don't overwrite slots before everyone has read
    }
  });
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(folds, kRounds);
}

TEST_F(ShardPoolTest, ExceptionInBarrierFreeBodyIsRethrownAndTeamSurvives) {
  ShardTeam team(2);
  EXPECT_THROW(
      team.run([](int w) {
        if (w == 0) throw std::runtime_error("worker fault");
      }),
      std::runtime_error);
  // The team is still serviceable afterwards.
  std::atomic<int> ran{0};
  team.run([&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
}

TEST_F(ShardPoolTest, TeamCacheReusesTeamsBySize) {
  const std::shared_ptr<ShardTeam> a = shard_team_for(2);
  const std::shared_ptr<ShardTeam> b = shard_team_for(2);
  EXPECT_EQ(a.get(), b.get());
  const std::shared_ptr<ShardTeam> c = shard_team_for(3);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->workers(), 3);
}

// ---- the headline invariant: pinned == serial, bit for bit -----------------
// The whole registry over the shard/thread grid. threads = 4 at shards = 4
// runs a real multi-worker team with the fused round protocol — the TSan
// anchor of the pinned executor.

TEST_F(ShardPoolTest, PinnedBitIdenticalToSerialAcrossRegistry) {
  struct Instance {
    std::string label;
    std::shared_ptr<const Graph> graph;
  };
  std::vector<Instance> instances;
  for (const std::string fam : {"regular", "torus"}) {
    instances.push_back(
        {fam, std::make_shared<const Graph>(build::family(fam, 512, 3, 13))});
  }
  const std::string sample =
      std::string(PADLOCK_TEST_DATA_DIR) + "/p2p-sample.txt";
  instances.push_back({"file:p2p-sample",
                       GraphCache::instance().get_or_build(
                           "file:" + sample, 0, 0, 0)});

  for (const auto* algo : AlgorithmRegistry::instance().algos()) {
    for (const Instance& inst : instances) {
      if (algo->precondition && !algo->precondition(*inst.graph)) continue;
      RunOptions opts;
      opts.seed = 29;
      exec_context().threads = 1;
      SolveOutcome serial;
      {
        ScopedEngineShards scope(1);
        serial = run(algo->problem, algo->name, *inst.graph, opts);
      }
      ASSERT_TRUE(serial.ok());
      for (const int shards : {1, 2, 4, 7}) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(algo->problem + "/" + algo->name + " @" + inst.label +
                       " shards=" + std::to_string(shards) +
                       " threads=" + std::to_string(threads));
          exec_context().threads = threads;
          ScopedEngineShards scope(shards);
          const SolveOutcome pinned =
              run(algo->problem, algo->name, *inst.graph, opts);
          ASSERT_TRUE(pinned.ok());
          EXPECT_TRUE(pinned.output == serial.output);
          EXPECT_TRUE(pinned.rounds == serial.rounds);
        }
      }
    }
  }
}

// ---- SIMD step kernel ------------------------------------------------------

TEST_F(ShardPoolTest, SimdStepIsBitIdenticalToScalarOracle) {
  exec_context().threads = 4;
  const Graph g = build::family("regular", 4096, 3, 17);
  const IdMap ids = shuffled_ids(g, 5);

  MisResult scalar;
  MessageEngineStats scalar_stats;
  {
    ScopedEngineShards scope(4);
    ScopedEngineSimd simd(false);
    scalar = luby_mis(g, ids, 7, &scalar_stats);
  }
  EXPECT_EQ(scalar_stats.simd_batches, 0);

  MisResult vectored;
  MessageEngineStats simd_stats;
  {
    ScopedEngineShards scope(4);
    ScopedEngineSimd simd(true);
    vectored = luby_mis(g, ids, 7, &simd_stats);
  }
  EXPECT_TRUE(vectored.in_set == scalar.in_set);
  EXPECT_EQ(vectored.rounds, scalar.rounds);
#if defined(__AVX2__)
  // Wherever the build carries AVX2 the batched kernel must actually run
  // on a uniform-send rule with dense frontiers (luby broadcasts every
  // round, so full words clear the kSimdMinActiveNodes gate).
  EXPECT_GT(simd_stats.simd_batches, 0);
#else
  EXPECT_EQ(simd_stats.simd_batches, 0);
#endif
}

// ---- gauges ----------------------------------------------------------------

TEST_F(ShardPoolTest, PinnedRunReportsGauges) {
  exec_context().threads = 4;
  const Graph g = build::family("regular", 512, 3, 17);
  const IdMap ids = shuffled_ids(g, 5);
  ScopedEngineShards scope(4);
  MessageEngineStats stats;
  (void)luby_mis(g, ids, 7, &stats);
  EXPECT_EQ(stats.shards, 4);
  EXPECT_GT(stats.cross_shard_msgs, 0);
  EXPECT_GT(stats.halo_bytes, stats.cross_shard_msgs);
  // barrier_ns only ticks on real multi-worker teams (the inline fused
  // path has no barrier); either way it is non-negative and pinning is
  // bounded by the team size.
  EXPECT_GE(stats.barrier_ns, 0);
  EXPECT_GE(stats.pinned_teams, 0);
  EXPECT_LE(stats.pinned_teams, 4);
  if (stats.pinned_teams == 0) {
    EXPECT_EQ(stats.numa_local_bytes, 0);
  } else {
    EXPECT_GT(stats.numa_local_bytes, 0);
    EXPECT_LE(stats.numa_local_bytes, stats.bytes_slab);
  }
  // Surfacing: the new gauges ride the same stats object the sweep JSON
  // renders.
  Stats out;
  stats.surface(out);
  EXPECT_NE(out.str().find("pinned_teams"), std::string::npos);
  EXPECT_NE(out.str().find("barrier_ns"), std::string::npos);
  EXPECT_NE(out.str().find("numa_local_bytes"), std::string::npos);
}

// ---- fault safety ----------------------------------------------------------

TEST_F(ShardPoolTest, RoundBudgetViolationSurvivesAndTeamIsReusable) {
  exec_context().threads = 4;
  const Graph g = build::family("cycle", 512, 3, 11);
  const IdMap ids = shuffled_ids(g, 5);
  ScopedEngineShards scope(4);
  // color-reduce style workloads need hundreds of rounds; a budget of 1 is
  // a guaranteed violation. The pinned engine must convert the fold-side
  // PADLOCK_REQUIRE into the same ContractViolation the serial engine
  // throws — through the team, without deadlocking it.
  NeverHalts alg;
  EXPECT_THROW(run_message_rounds(g, alg, 1), ContractViolation);

  // The same team (cached by size) services the next run cleanly.
  MessageEngineStats stats;
  const MisResult res = luby_mis(g, ids, 7, &stats);
  EXPECT_GT(res.rounds, 0);
  EXPECT_EQ(stats.shards, 4);
}

}  // namespace
}  // namespace padlock
