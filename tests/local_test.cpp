#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>

#include "graph/builders.hpp"
#include "local/ids.hpp"
#include "local/message_engine.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

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

// ids_valid against a reference implementation kept here: the plain
// hash-set scan it replaced. Run at 1 thread (every pass inline) and at 4
// (inputs above one kIdCheckChunk spread over the pool, so the bitmap's
// fetch_or is a shared write under TSan).
bool reference_ids_valid(const Graph& g, const IdMap& ids) {
  if (ids.size() != g.num_nodes()) return false;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    if (id < 1 || !seen.insert(id).second) return false;
  }
  return true;
}

class IdsValidOracle : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    saved_threads_ = exec_context().threads;
    exec_context().threads = GetParam();
  }
  void TearDown() override { exec_context().threads = saved_threads_; }

  static void expect(const Graph& g, const IdMap& ids, bool valid,
                     const std::string& what) {
    SCOPED_TRACE(what + " at n=" + std::to_string(g.num_nodes()));
    ASSERT_EQ(reference_ids_valid(g, ids), valid);
    EXPECT_EQ(ids_valid(g, ids), valid);
  }

 private:
  int saved_threads_ = 1;
};

TEST_P(IdsValidOracle, EmptyGraphAndSizeMismatch) {
  const Graph empty;
  expect(empty, IdMap(0, 1), true, "empty");
  expect(empty, IdMap(1, 1), false, "ids on an empty graph");
  const Graph g = build::cycle(kIdCheckChunk + 5);
  const IdMap ids = sequential_ids(g);
  IdMap longer(g.num_nodes() + 1, 0);
  IdMap shorter(g.num_nodes() - 1, 0);
  for (std::size_t v = 0; v < longer.size(); ++v)
    longer[static_cast<NodeId>(v)] = v + 1;
  for (std::size_t v = 0; v < shorter.size(); ++v)
    shorter[static_cast<NodeId>(v)] = ids[static_cast<NodeId>(v)];
  expect(g, longer, false, "one id too many");
  expect(g, shorter, false, "one id too few");
}

TEST_P(IdsValidOracle, ZeroIdAnywhere) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{100},
                              3 * kIdCheckChunk + 1}) {
    const Graph g = build::cycle(n);
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      IdMap ids = shuffled_ids(g, 3);
      ids[static_cast<NodeId>(at)] = 0;
      expect(g, ids, false, "zero at " + std::to_string(at));
    }
  }
}

TEST_P(IdsValidOracle, DuplicatesAtTheEndsAndAroundEveryChunkBoundary) {
  const std::size_t n = 4 * kIdCheckChunk + 123;  // five chunks
  const Graph g = build::cycle(n);
  // Dense (bitmap pass) and sparse (sort pass) bases.
  for (const bool sparse : {false, true}) {
    const IdMap base = sparse ? sparse_ids(g, 9) : shuffled_ids(g, 9);
    const std::string mode = sparse ? "sparse " : "shuffled ";
    expect(g, base, true, mode + "base");
    const auto dup = [&](std::size_t from, std::size_t to) {
      IdMap ids = base;
      ids[static_cast<NodeId>(to)] = ids[static_cast<NodeId>(from)];
      expect(g, ids, false,
             mode + "dup " + std::to_string(from) + "->" + std::to_string(to));
    };
    dup(1, 0);
    dup(n - 2, n - 1);
    dup(0, n - 1);
    for (std::size_t b = kIdCheckChunk; b < n; b += kIdCheckChunk) {
      dup(b - 1, b);      // straddles the boundary
      dup(b - 2, b - 1);  // both just before it
      dup(b, b + 1);      // both just after it
      dup(0, b);          // first chunk against the next chunk's first id
    }
  }
}

TEST_P(IdsValidOracle, BitmapToSortSwitchAtSixtyFourN) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{64},
                              2 * kIdCheckChunk}) {
    const Graph g = build::cycle(n);
    const std::uint64_t limit = std::uint64_t{64} * n;
    for (const std::uint64_t top : {limit, limit + 1}) {
      const std::string what = "max id " + std::to_string(top);
      IdMap ids = sequential_ids(g);
      ids[static_cast<NodeId>(n - 1)] = top;
      expect(g, ids, true, what);
      if (n == 1) continue;
      IdMap twice = ids;
      twice[0] = top;
      expect(g, twice, false, what + " twice");
      IdMap low_dup = ids;
      low_dup[0] = ids[static_cast<NodeId>(n / 2)];
      expect(g, low_dup, false, what + " with a low duplicate");
    }
  }
}

TEST_P(IdsValidOracle, LargestRepresentableId) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              kIdCheckChunk + 1}) {
    const Graph g = build::cycle(n);
    IdMap ids = sequential_ids(g);
    ids[0] = kMax;
    expect(g, ids, true, "UINT64_MAX once");
    if (n == 1) continue;
    ids[static_cast<NodeId>(n - 1)] = kMax;
    expect(g, ids, false, "UINT64_MAX twice");
  }
}

TEST_P(IdsValidOracle, EveryStrategyUpToTwoToTheSeventeen) {
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{1000}, kIdCheckChunk,
        kIdCheckChunk + 1, std::size_t{1} << 17}) {
    const Graph g = build::cycle(n);
    const std::pair<const char*, IdMap> strategies[] = {
        {"sequential", sequential_ids(g)},
        {"shuffled", shuffled_ids(g, 21)},
        {"sparse", sparse_ids(g, 21)},
        {"adversarial", bfs_adversarial_ids(g)},
    };
    for (const auto& [name, ids] : strategies) {
      expect(g, ids, true, name);
      if (n == 1) continue;
      IdMap dup = ids;
      dup[static_cast<NodeId>(n / 3)] = dup[static_cast<NodeId>(2 * n / 3)];
      expect(g, dup, false, std::string(name) + " with a duplicate");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, IdsValidOracle, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

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
