#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "graph/builders.hpp"
#include "local/engine.hpp"
#include "local/ids.hpp"
#include "local/message_engine.hpp"
#include "local/view.hpp"
#include "support/check.hpp"

namespace padlock {
namespace {

TEST(Ids, SequentialValid) {
  Graph g = build::cycle(10);
  EXPECT_TRUE(ids_valid(g, sequential_ids(g)));
}

TEST(Ids, ShuffledIsPermutation) {
  Graph g = build::cycle(10);
  const auto ids = shuffled_ids(g, 5);
  EXPECT_TRUE(ids_valid(g, ids));
  std::uint64_t sum = 0;
  for (NodeId v = 0; v < 10; ++v) sum += ids[v];
  EXPECT_EQ(sum, 55u);  // 1..10
}

TEST(Ids, SparseWithinCube) {
  Graph g = build::cycle(16);
  const auto ids = sparse_ids(g, 7);
  EXPECT_TRUE(ids_valid(g, ids));
  for (NodeId v = 0; v < 16; ++v) EXPECT_LE(ids[v], 16ull * 16 * 16);
}

TEST(Ids, SparseIdSpaceIsTheExactCubeOrSaturates) {
  EXPECT_EQ(sparse_id_space(0), 0u);
  EXPECT_EQ(sparse_id_space(1000), 1000000000ull);
  // The largest n whose cube fits in 64 bits stays exact ...
  EXPECT_EQ(sparse_id_space(2642245), 2642245ull * 2642245ull * 2642245ull);
  // ... and beyond it the space saturates instead of wrapping: at 2^22
  // (serve's default max_nodes) n^3 = 2^66 used to wrap to 0.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(sparse_id_space(2642246), kMax);
  EXPECT_EQ(sparse_id_space(std::uint64_t{1} << 22), kMax);
}

TEST(Ids, AdversarialDescendsWithBfsDepth) {
  Graph g = build::path(8);
  const auto ids = bfs_adversarial_ids(g);
  EXPECT_TRUE(ids_valid(g, ids));
  EXPECT_GT(ids[0], ids[7]);
}

TEST(Ids, RejectsDuplicates) {
  Graph g = build::cycle(3);
  IdMap ids(g, 0);
  ids[0] = 1;
  ids[1] = 1;
  ids[2] = 2;
  EXPECT_FALSE(ids_valid(g, ids));
}

TEST(LocalView, StrictAllowsBallReads) {
  Graph g = build::cycle(8);
  LocalView view(g, 0, ViewMode::kStrict);
  view.extend(2);
  EXPECT_TRUE(view.knows_node(1));
  EXPECT_TRUE(view.knows_node(2));
  EXPECT_FALSE(view.knows_node(3));
  EXPECT_TRUE(view.knows_ports(1));
  EXPECT_FALSE(view.knows_ports(2));  // boundary node: data only
  EXPECT_EQ(view.dist(6), 2);
  EXPECT_EQ(view.neighbor(1, 0), 0u);  // node 1's port 0 is edge {0,1}
}

TEST(LocalView, StrictThrowsOutsideBall) {
  Graph g = build::cycle(8);
  LocalView view(g, 0, ViewMode::kStrict);
  view.extend(1);
  // Contract violations throw (fault-isolated sweeps); the abort behaviour
  // is opt-in via PADLOCK_ABORT_ON_CONTRACT / set_contract_abort.
  EXPECT_THROW((void)view.degree(4), ContractViolation);
}

TEST(LocalView, AuditTracksRadiusWithoutChecks) {
  Graph g = build::cycle(8);
  LocalView view(g, 0, ViewMode::kAudit);
  view.extend(3);
  EXPECT_EQ(view.radius(), 3);
  EXPECT_EQ(view.degree(5), 2);  // unchecked read succeeds
}

TEST(LocalView, ExtendIsMonotone) {
  Graph g = build::cycle(8);
  LocalView view(g, 0, ViewMode::kStrict);
  view.extend(3);
  view.extend(1);
  EXPECT_EQ(view.radius(), 3);
}

TEST(GatherEngine, ReportsMaxRadius) {
  Graph g = build::path(5);
  const auto report = run_gather(g, ViewMode::kStrict,
                                 [&](LocalView& view, NodeId v) {
                                   view.extend(static_cast<int>(v % 3));
                                 });
  EXPECT_EQ(report.rounds, 2);
  EXPECT_EQ(report.node_rounds[0], 0);
  EXPECT_EQ(report.node_rounds[2], 2);
}

// A trivial message algorithm: flood the maximum id; checks engine
// delivery, port symmetry, and round counting.
struct MaxFlood {
  using Message = std::uint64_t;
  const Graph& g;
  const IdMap& ids;
  std::vector<std::uint64_t> best;
  int needed_rounds;
  int seen_rounds = 0;

  MaxFlood(const Graph& g_in, const IdMap& ids_in, int rounds_needed)
      : g(g_in), ids(ids_in), needed_rounds(rounds_needed) {
    best.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) best[v] = ids[v];
  }
  std::optional<Message> send(NodeId v, int, int) { return best[v]; }
  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int r) {
    for (const auto& m : inbox)
      if (m && *m > best[v]) best[v] = *m;
    if (v == 0) seen_rounds = r;
  }
  bool done(NodeId) const { return seen_rounds >= needed_rounds; }
};

TEST(MessageEngine, FloodReachesDiameter) {
  Graph g = build::path(6);
  const auto ids = sequential_ids(g);
  MaxFlood alg(g, ids, 5);
  const int rounds = run_message_rounds(g, alg, 100);
  EXPECT_EQ(rounds, 5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(alg.best[v], 6u);
}

struct Echo {
  using Message = int;
  int got = 0;
  int rounds_done = 0;
  std::optional<Message> send(NodeId, int port, int) { return port + 10; }
  template <class Inbox>
  void step(NodeId, const Inbox& inbox, int r) {
    // Port 0 receives what was sent on port 1 and vice versa.
    got = *inbox[0] * 100 + *inbox[1];
    rounds_done = r;
  }
  bool done(NodeId) const { return rounds_done >= 1; }
};

TEST(MessageEngine, SelfLoopDeliversToSelf) {
  GraphBuilder b;
  b.add_node();
  b.add_edge(0, 0);
  Graph g = std::move(b).build();
  Echo alg;
  run_message_rounds(g, alg, 10);
  EXPECT_EQ(alg.got, 11 * 100 + 10);
}

struct Never {
  using Message = int;
  std::optional<Message> send(NodeId, int, int) { return 0; }
  template <class Inbox>
  void step(NodeId, const Inbox&, int) {}
  bool done(NodeId) const { return false; }
};

TEST(MessageEngine, RespectsMaxRounds) {
  Graph g = build::cycle(4);
  Never alg;
  EXPECT_THROW(run_message_rounds(g, alg, 3), ContractViolation);
}

}  // namespace
}  // namespace padlock
