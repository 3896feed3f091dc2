// Property suite for the shard geometry (graph/partition.hpp) and the
// shard-count dispatch of run_message_rounds (local/message_engine.hpp):
//
//  * partition geometry: shards are contiguous, word-aligned, and cover
//    the node and CSR-port spaces exactly; requested counts clamp to the
//    frontier word count on tiny graphs;
//  * dispatch: shards == 1 — or a graph too small to split — runs the
//    inline executor, shards > 1 the pinned one, and the plan's shard count
//    is row-local;
//  * the cross-shard gauges count exactly the port slots read across the
//    cut (peer_port outside the sender's shard range), per send phase, on
//    both the uniform-send and the per-port send path;
//  * partitions are memoized per graph: repeated sweep rows on a cached
//    graph never re-partition (pinned through the process-wide counters).
//
// Bit-identity of the pinned executor with the inline one is pinned by
// tests/shard_pool_test.cpp and the reference-output map of
// tests/message_engine_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/luby_mis.hpp"
#include "core/graph_cache.hpp"
#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "graph/partition.hpp"
#include "local/message_engine.hpp"
#include "support/thread_pool.hpp"

namespace padlock {
namespace {

// Every node broadcasts its id for exactly kRounds rounds, then halts. All
// n nodes send in each of those rounds and, as drain nodes, once more: the
// pinned protocol runs the send phase before the barrier fold that detects
// termination, so the drain round's sends are counted although no step
// reads them. The cross-shard gauges must therefore equal (kRounds + 1) x
// (cut slots). kUniform selects the engine's send path.
template <bool kUniform>
struct FixedRounds {
  static constexpr int kRounds = 5;
  static constexpr bool kUniformSend = kUniform;
  using Message = std::uint64_t;
  std::vector<int> left;
  explicit FixedRounds(std::size_t n) : left(n, kRounds) {}
  std::optional<Message> send(NodeId v, int, int) { return v; }
  template <class Inbox>
  void step(NodeId v, const Inbox&, int) {
    --left[v];
  }
  bool done(NodeId v) const { return left[v] == 0; }
};

class SubstrateTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = exec_context(); }
  void TearDown() override { exec_context() = saved_; }

 private:
  ExecContext saved_;
};

// ---- partition geometry ----------------------------------------------------

TEST_F(SubstrateTest, PartitionIsWordAlignedAndCoversTheGraph) {
  const Graph g = build::family("regular", 512, 3, 13);
  const Partition part = Partition::build(g, 4);
  ASSERT_EQ(part.num_shards(), 4);

  NodeId next_node = 0;
  std::size_t next_word = 0, next_port = 0;
  for (int s = 0; s < part.num_shards(); ++s) {
    const Partition::Shard& sh = part.shard(s);
    EXPECT_EQ(sh.node_begin, next_node);
    EXPECT_EQ(sh.word_begin, next_word);
    EXPECT_EQ(sh.port_base, next_port);
    EXPECT_EQ(sh.node_begin % 64, 0u) << "shard " << s;
    EXPECT_EQ(sh.node_begin, static_cast<NodeId>(sh.word_begin * 64));
    EXPECT_EQ(sh.port_base, g.port_offset(sh.node_begin));
    next_node = sh.node_end;
    next_word = sh.word_end;
    next_port = sh.port_end;
  }
  EXPECT_EQ(next_node, g.num_nodes());
  EXPECT_EQ(next_port, 2 * g.num_edges());
  EXPECT_GT(part.bytes(), 0);
}

TEST_F(SubstrateTest, PartitionClampsToFrontierWords) {
  // 100 nodes = 2 frontier words: at most 2 word-aligned shards exist.
  const Graph tiny = build::family("cycle", 100, 3, 7);
  EXPECT_EQ(Partition::build(tiny, 7).num_shards(), 2);
  EXPECT_EQ(Partition::build(tiny, 1).num_shards(), 1);
  // One word -> always one shard.
  const Graph word = build::family("cycle", 64, 3, 7);
  EXPECT_EQ(Partition::build(word, 4).num_shards(), 1);
}

// ---- dispatch and gauges ---------------------------------------------------

TEST_F(SubstrateTest, OneShardOrOneWordRunsInline) {
  exec_context().threads = 1;
  const Graph g = build::family("cycle", 256, 3, 11);
  const IdMap ids = shuffled_ids(g, 5);
  {
    ScopedEngineShards scope(1);
    MessageEngineStats stats;
    (void)luby_mis(g, ids, 7, &stats);
    EXPECT_EQ(stats.shards, 1);
    EXPECT_EQ(stats.cross_shard_msgs, 0);
    EXPECT_GT(stats.serial_phases, 0);  // the inline executor's counters
  }
  // A one-word graph cannot be split: shards = 4 still runs inline.
  const Graph word = build::family("cycle", 64, 3, 11);
  const IdMap word_ids = shuffled_ids(word, 5);
  ScopedEngineShards scope(4);
  MessageEngineStats stats;
  (void)luby_mis(word, word_ids, 7, &stats);
  EXPECT_EQ(stats.shards, 1);
  EXPECT_EQ(stats.halo_bytes, 0);
}

template <bool kUniform>
void expect_cut_traffic(const Graph& g, int shards) {
  const Partition part = Partition::build(g, shards);
  std::int64_t cut = 0;
  for (int s = 0; s < part.num_shards(); ++s) {
    const Partition::Shard& sh = part.shard(s);
    for (std::size_t i = sh.port_base; i < sh.port_end; ++i) {
      const std::size_t reader = g.peer_port()[i];
      if (reader < sh.port_base || reader >= sh.port_end) ++cut;
    }
  }
  ASSERT_GT(cut, 0);
  ScopedEngineShards scope(shards);
  FixedRounds<kUniform> alg(g.num_nodes());
  MessageEngineStats stats;
  EXPECT_EQ(run_message_rounds(g, alg, 100, &stats),
            FixedRounds<kUniform>::kRounds);
  EXPECT_EQ(stats.shards, part.num_shards());
  EXPECT_EQ(stats.cross_shard_msgs,
            (FixedRounds<kUniform>::kRounds + 1) * cut);
  EXPECT_EQ(stats.halo_bytes, stats.cross_shard_msgs *
                                  static_cast<std::int64_t>(sizeof(
                                      typename FixedRounds<kUniform>::Message)));
}

TEST_F(SubstrateTest, CrossShardGaugesCountCutSlotsPerRound) {
  for (const int threads : {1, 4}) {
    exec_context().threads = threads;
    for (const std::string fam : {"torus", "regular"}) {
      const Graph g = build::family(fam, 576, 3, 19);
      for (const int shards : {2, 4, 7}) {
        SCOPED_TRACE(fam + " shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        expect_cut_traffic<true>(g, shards);
        expect_cut_traffic<false>(g, shards);
      }
    }
  }
}

// ---- partition memoization -------------------------------------------------

TEST_F(SubstrateTest, PartitionsAreMemoizedPerGraphAndSharedByCopies) {
  const Graph g = build::family("regular", 512, 3, 23);
  reset_partition_cache_counters();
  const auto p1 = g.partition(4);
  const auto p2 = g.partition(4);
  EXPECT_EQ(p1.get(), p2.get());
  const Graph copy = g;  // copies share the per-graph store
  const auto p3 = copy.partition(4);
  EXPECT_EQ(p1.get(), p3.get());
  (void)g.partition(2);  // a second shard count is its own entry
  PartitionCacheCounters c = partition_cache_counters();
  EXPECT_EQ(c.misses, 2);
  EXPECT_EQ(c.hits, 2);

  // The sweep idiom: a cached graph resolves the same partition across
  // rows, so a whole sharded sweep partitions each menu entry once.
  const auto cached = GraphCache::instance().get_or_build("regular", 512,
                                                          3, 29);
  reset_partition_cache_counters();
  (void)cached->partition(4);
  const auto again = GraphCache::instance().get_or_build("regular", 512,
                                                         3, 29);
  (void)again->partition(4);
  c = partition_cache_counters();
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.hits, 1);
}

TEST_F(SubstrateTest, SweepOutcomeRecordsShards) {
  ExecutionPlan plan;
  plan.pairs = {{"mis", "luby"}};
  plan.graphs.push_back({"regular", 512, 3, 13});
  plan.threads = 1;
  plan.shards = 4;
  const SweepOutcome out = run_batch(plan);
  EXPECT_TRUE(out.all_ok());
  EXPECT_EQ(out.shards, 4);
  const std::string json = to_json(out);
  EXPECT_EQ(json.rfind("{\"threads\": 1, \"shards\": 4, \"wall_ns\": ", 0),
            0u)
      << json.substr(0, 80);
  EXPECT_NE(json.find("\"cross_shard_msgs\""), std::string::npos);
  EXPECT_NE(json.find("\"halo_bytes\""), std::string::npos);

  // The forced shard count is row-local: the plan must not leak into the
  // ambient context of the dispatching thread.
  EXPECT_EQ(engine_effective_shards(), exec_context().shards);
}

}  // namespace
}  // namespace padlock
