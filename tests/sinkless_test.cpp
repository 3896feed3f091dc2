#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/sinkless_det.hpp"
#include "algo/sinkless_rand.hpp"
#include "graph/builders.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"
#include "lcl/problems/sinkless_orientation.hpp"
#include "support/thread_pool.hpp"

namespace padlock {
namespace {

// ---- short_cycle_through -----------------------------------------------------

TEST(ShortCycle, TriangleAndPendant) {
  GraphBuilder b;
  b.add_nodes(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  Graph g = std::move(b).build();
  EXPECT_EQ(short_cycle_through(g, 0, 10), 3);
  EXPECT_EQ(short_cycle_through(g, 2, 10), 3);
  EXPECT_FALSE(short_cycle_through(g, 3, 10).has_value());
  EXPECT_FALSE(short_cycle_through(g, 4, 10).has_value());
}

TEST(ShortCycle, RespectsBudget) {
  Graph g = build::cycle(12);
  EXPECT_FALSE(short_cycle_through(g, 0, 11).has_value());
  EXPECT_EQ(short_cycle_through(g, 0, 12), 12);
  EXPECT_EQ(short_cycle_through(g, 0, 20), 12);
}

TEST(ShortCycle, SelfLoopAndParallel) {
  GraphBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(short_cycle_through(g, 0, 10), 1);
  EXPECT_EQ(short_cycle_through(g, 1, 10), 2);
}

TEST(ShortCycle, SelfLoopAfterParallelPairReportsOne) {
  // Node 0: a parallel pair to node 1 at ports 0-1, a self-loop at ports
  // 2-3. The pair comes first in port order; the loop is still shorter.
  GraphBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(0, 0);
  Graph g = std::move(b).build();
  ASSERT_EQ(g.neighbor(0, 0), 1u);
  ASSERT_EQ(g.neighbor(0, 1), 1u);
  ASSERT_EQ(g.neighbor(0, 2), 0u);
  ASSERT_EQ(g.neighbor(0, 3), 0u);
  EXPECT_EQ(short_cycle_through(g, 0, 10), 1);
  EXPECT_EQ(short_cycle_through(g, 0, 1), 1);
  EXPECT_EQ(short_cycle_through(g, 1, 10), 2);
}

TEST(ShortCycle, MatchesBruteForceOnTorus) {
  Graph g = build::torus(4, 4);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(short_cycle_through(g, v, 16), 4) << v;
}

TEST(ShortCycle, DumbbellBarHasNoCycle) {
  // Two triangles joined by a 3-edge path.
  GraphBuilder b;
  b.add_nodes(8);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  b.add_edge(6, 7);
  b.add_edge(7, 5);
  Graph g = std::move(b).build();
  EXPECT_FALSE(short_cycle_through(g, 3, 20).has_value());
  EXPECT_FALSE(short_cycle_through(g, 4, 20).has_value());
  EXPECT_EQ(short_cycle_through(g, 5, 20), 3);
}

// ---- Deterministic algorithm ----------------------------------------------------

class SinklessDetTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(SinklessDetTest, ValidOnRandomCubic) {
  const auto [n, seed] = GetParam();
  Graph g = build::random_regular(n, 3, seed);
  const auto ids = shuffled_ids(g, seed);
  const auto res = sinkless_orientation_det(g, ids, n);
  EXPECT_TRUE(is_sinkless(g, res.tails));
  EXPECT_GT(res.report.rounds, 0);
}

TEST_P(SinklessDetTest, ValidOnSimpleCubic) {
  const auto [n, seed] = GetParam();
  Graph g = build::random_regular_simple(n, 3, seed);
  const auto res = sinkless_orientation_det(g, shuffled_ids(g, seed), n);
  EXPECT_TRUE(is_sinkless(g, res.tails));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SinklessDetTest,
    ::testing::Combine(::testing::Values(8, 32, 64, 128, 256),
                       ::testing::Values(1, 2, 3)));

TEST(SinklessDet, WorksOnHighGirth) {
  Graph g = build::high_girth_regular(256, 3, 9, 4);
  const auto res = sinkless_orientation_det(g, shuffled_ids(g, 4), 256);
  EXPECT_TRUE(is_sinkless(g, res.tails));
  // Rounds are O(log n): generous sanity bound.
  EXPECT_LE(res.report.rounds, 4 * 8 + 10);
}

TEST(SinklessDet, WorksOnTorusAndMixedDegrees) {
  Graph torus = build::torus(5, 6);
  const auto res = sinkless_orientation_det(torus, sequential_ids(torus), 30);
  EXPECT_TRUE(is_sinkless(torus, res.tails));

  // A graph mixing degree-1, degree-2 and degree-4 nodes.
  GraphBuilder b;
  b.add_nodes(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 0);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  Graph g = std::move(b).build();
  const auto res2 = sinkless_orientation_det(g, sequential_ids(g), 7);
  EXPECT_TRUE(is_sinkless(g, res2.tails));
}

TEST(SinklessDet, DeterministicInIds) {
  Graph g = build::random_regular_simple(64, 3, 9);
  const auto ids = shuffled_ids(g, 3);
  const auto a = sinkless_orientation_det(g, ids, 64);
  const auto b = sinkless_orientation_det(g, ids, 64);
  EXPECT_EQ(a.tails, b.tails);
}

TEST(SinklessDet, SelfLoopsAndParallelsHandled) {
  GraphBuilder b;
  b.add_nodes(4);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 3);
  Graph g = std::move(b).build();
  const auto res = sinkless_orientation_det(g, sequential_ids(g), 4);
  EXPECT_TRUE(is_sinkless(g, res.tails));
}

// The locality audit: the per-edge rule re-evaluated on the extracted
// radius-r(v) ball must orient v's incident edges identically. This is what
// certifies the algorithm is genuinely O(log n)-local.
TEST(SinklessDet, LocalityAudit) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    Graph g = build::random_regular_simple(48, 3, seed);
    const auto ids = shuffled_ids(g, seed);
    const std::size_t n = g.num_nodes();
    const auto res = sinkless_orientation_det(g, ids, n);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const int r = res.report.node_rounds[v];
      const auto ball = extract_ball(g, v, r);
      const auto ball_ids = restrict_to_ball(ball, ids);
      for (int p = 0; p < g.degree(v); ++p) {
        const HalfEdge h = g.incidence(v, p);
        // Locate the same edge in the ball.
        EdgeId ball_edge = kNoEdge;
        for (EdgeId be = 0; be < ball.graph.num_edges(); ++be)
          if (ball.edge_to_original[be] == h.edge) {
            ball_edge = be;
            break;
          }
        ASSERT_NE(ball_edge, kNoEdge);
        const int tail =
            sinkless_det_edge_rule(ball.graph, ball_ids, n, ball_edge);
        EXPECT_EQ(tail, res.tails[h.edge])
            << "node " << v << " edge " << h.edge << " radius " << r;
      }
    }
  }
}

TEST(SinklessDet, EdgeRuleMatchesBatchOnFullGraph) {
  Graph g = build::random_regular(32, 3, 8);
  const auto ids = shuffled_ids(g, 8);
  const auto res = sinkless_orientation_det(g, ids, 32);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_EQ(sinkless_det_edge_rule(g, ids, 32, e), res.tails[e]) << e;
}

// ---- Brute-force oracle for the whole rule ----------------------------------

// The rule of sinkless_det.hpp rebuilt without its shortcuts: no ball, no
// distance pruning, and every simple cycle through v no longer than the
// best so far is canonicalised by trying all 2k rotations and reflections.
using CanonSeq = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

std::uint64_t oracle_edge_key(const Graph& g, const IdMap& ids, EdgeId e) {
  const auto [a, b] = g.endpoints(e);
  int pa = g.port_of(HalfEdge{e, 0});
  int pb = g.port_of(HalfEdge{e, 1});
  if (a == b ? pa > pb : ids[a] > ids[b]) std::swap(pa, pb);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pa)) << 32) |
         static_cast<std::uint32_t>(pb);
}

struct OracleCycle {
  int length = 0;  // 0: no cycle through v within the budget
  CanonSeq seq;
  EdgeId succ = kNoEdge;  // v's successor edge in the canonical direction
};

// The (length, canonical sequence)-minimal simple cycle through v.
OracleCycle oracle_min_cycle(const Graph& g, const IdMap& ids, NodeId v,
                             int budget) {
  OracleCycle best;
  std::vector<NodeId> nodes{v};
  std::vector<EdgeId> edges;  // edges[i] joins nodes[i] and nodes[i+1 mod k]
  const auto offer = [&] {
    const std::size_t k = nodes.size();
    if (best.length > 0 && static_cast<int>(k) > best.length) return;
    for (std::size_t r = 0; r < k; ++r) {
      for (const bool fwd : {true, false}) {
        CanonSeq seq;
        EdgeId at_v = kNoEdge;
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t ni = fwd ? (r + i) % k : (r + k - i) % k;
          const std::size_t ei = fwd ? ni : (ni + k - 1) % k;
          seq.emplace_back(ids[nodes[ni]], oracle_edge_key(g, ids, edges[ei]));
          if (nodes[ni] == v) at_v = edges[ei];
        }
        const int len = static_cast<int>(k);
        if (best.length == 0 || len < best.length ||
            (len == best.length && seq < best.seq)) {
          best = {len, std::move(seq), at_v};
        }
      }
    }
  };
  const auto extend = [&](const auto& self, NodeId u) -> void {
    for (const HalfEdge h : g.incident(u)) {
      if (std::find(edges.begin(), edges.end(), h.edge) != edges.end())
        continue;
      const NodeId w = g.node_across(h);
      if (w == v) {
        edges.push_back(h.edge);
        offer();
        edges.pop_back();
        continue;
      }
      // A longer path can only close a longer cycle than the best so far.
      const int cap = best.length > 0 ? best.length : budget;
      if (static_cast<int>(nodes.size()) >= cap) continue;
      if (std::find(nodes.begin(), nodes.end(), w) != nodes.end()) continue;
      nodes.push_back(w);
      edges.push_back(h.edge);
      self(self, w);
      nodes.pop_back();
      edges.pop_back();
    }
  };
  extend(extend, v);
  return best;
}

Orientation oracle_orientation(const Graph& g, const IdMap& ids) {
  const std::size_t n = g.num_nodes();
  const int budget = sinkless_det_cycle_budget(n);
  std::vector<OracleCycle> cyc(n);
  std::vector<NodeId> t2;
  for (NodeId v = 0; v < n; ++v) {
    cyc[v] = oracle_min_cycle(g, ids, v, budget);
    if (cyc[v].length > 0 || g.degree(v) <= 2) t2.push_back(v);
  }
  const auto dist = bfs_distances(g, t2);
  std::vector<EdgeId> claim(n, kNoEdge);
  for (NodeId v = 0; v < n; ++v) {
    if (g.degree(v) <= 2) continue;
    if (cyc[v].length > 0) {
      claim[v] = cyc[v].succ;
      continue;
    }
    std::optional<std::uint64_t> best_id;
    for (const HalfEdge h : g.incident(v)) {
      const NodeId w = g.node_across(h);
      if (dist[w] != dist[v] - 1) continue;
      if (!best_id || ids[w] < *best_id) {
        best_id = ids[w];
        claim[v] = h.edge;
      }
    }
  }
  Orientation tails(g, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [a, b] = g.endpoints(e);
    tails[e] = ids[a] > ids[b] ? 0 : 1;
    if (a == b || claim[a] == e) tails[e] = 0;
    else if (claim[b] == e) tails[e] = 1;
  }
  return tails;
}

bool has_self_loop_and_parallel_pair(const Graph& g) {
  bool loop = false;
  bool pair = false;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int p = 0; p < g.degree(v); ++p) {
      const NodeId w = g.neighbor(v, p);
      loop = loop || w == v;
      for (int q = 0; q < p; ++q)
        pair = pair || (w != v && g.neighbor(v, q) == w);
    }
  }
  return loop && pair;
}

TEST(SinklessDet, CanonicalCyclesMatchBruteForceOracle) {
  // Many tied shortest cycles (torus), loops and parallels (configuration
  // model, and a parallel pair ahead of a self-loop), and a plain random
  // cubic graph, each under three id orders.
  std::optional<Graph> multi;
  for (std::uint64_t seed = 1; seed <= 64 && !multi; ++seed) {
    Graph g = build::random_regular(16, 4, seed);
    if (has_self_loop_and_parallel_pair(g)) multi = std::move(g);
  }
  ASSERT_TRUE(multi.has_value());
  // Node 0's parallel pair to node 1 precedes its self-loop in port order;
  // node 3 has a loop after a simple edge.
  GraphBuilder pb;
  pb.add_nodes(4);
  pb.add_edge(0, 1);
  pb.add_edge(0, 1);
  pb.add_edge(0, 0);
  pb.add_edge(1, 2);
  pb.add_edge(2, 0);
  pb.add_edge(2, 3);
  pb.add_edge(3, 3);
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"torus(4,4)", build::torus(4, 4)},
      {"multigraph", *multi},
      {"pair-before-loop", std::move(pb).build()},
      {"cubic", build::random_regular_simple(48, 3, 11)}};
  for (const auto& [name, g] : graphs) {
    const std::vector<std::pair<std::string, IdMap>> id_sets = {
        {"sequential", sequential_ids(g)},
        {"shuffled", shuffled_ids(g, 7)},
        {"adversarial", bfs_adversarial_ids(g)}};
    for (const auto& [id_name, ids] : id_sets) {
      SCOPED_TRACE(name + " / " + id_name);
      const auto res = sinkless_orientation_det(g, ids, g.num_nodes());
      EXPECT_TRUE(res.tails == oracle_orientation(g, ids));
      EXPECT_TRUE(is_sinkless(g, res.tails));
    }
  }
}

// All searches of one thread share one scratch ball, cleared at the start
// of every search. Interleaving graphs of different sizes, single-node
// searches and a search cut short by the enumeration budget must not
// change any result.
TEST(SinklessDet, SharedScratchResetsAtEverySearch) {
  struct SerialScope {
    ExecContext saved = exec_context();
    SerialScope() { exec_context().threads = 1; }
    ~SerialScope() { exec_context() = saved; }
  } serial;  // every loop runs on the calling thread

  const Graph big = build::random_regular_simple(4096, 3, 5);
  const Graph small = build::random_regular(64, 3, 6);
  const IdMap big_ids = shuffled_ids(big, 5);
  const IdMap small_ids = shuffled_ids(small, 6);
  const int big_budget = sinkless_det_cycle_budget(big.num_nodes());

  // A hub joined to 1500 spokes, each joined to the same two nodes: the
  // hub has millions of 4-cycles, so its claim hits the enumeration budget
  // halfway through the search.
  GraphBuilder hb;
  hb.add_nodes(1503);
  for (NodeId a = 1; a <= 1500; ++a) {
    hb.add_edge(0, a);
    hb.add_edge(a, 1501);
    hb.add_edge(a, 1502);
  }
  const Graph hub = std::move(hb).build();
  const IdMap hub_ids = sequential_ids(hub);

  const auto on_fresh_thread = [](const auto& fn) {
    std::optional<decltype(fn())> out;
    std::thread([&] { out = fn(); }).join();
    return *out;
  };
  const auto det = [](const Graph& g, const IdMap& ids) {
    return [&g, &ids] {
      return sinkless_orientation_det(g, ids, g.num_nodes());
    };
  };
  const auto cycle = [](const Graph& g, NodeId v, int budget) {
    return [&g, v, budget] { return short_cycle_through(g, v, budget); };
  };
  const SinklessDetResult big_ref = on_fresh_thread(det(big, big_ids));
  const SinklessDetResult small_ref = on_fresh_thread(det(small, small_ids));
  const auto expect_det = [&](const Graph& g, const IdMap& ids,
                              const SinklessDetResult& ref) {
    const SinklessDetResult r = det(g, ids)();
    EXPECT_TRUE(r.tails == ref.tails);
    EXPECT_TRUE(r.report == ref.report);
  };
  const auto expect_cycle = [&](const Graph& g, NodeId v, int budget) {
    EXPECT_EQ(cycle(g, v, budget)(), on_fresh_thread(cycle(g, v, budget)))
        << "node " << v;
  };

  expect_det(big, big_ids, big_ref);
  expect_cycle(big, 17, big_budget);
  expect_det(small, small_ids, small_ref);
  for (NodeId v = 0; v < small.num_nodes(); ++v) expect_cycle(small, v, 3);
  expect_det(big, big_ids, big_ref);
  expect_cycle(small, 5, 12);

  try {
    (void)det(hub, hub_ids)();
    ADD_FAILURE() << "the hub's claim did not hit the enumeration budget";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("kEnumBudget"), std::string::npos)
        << e.what();
  }
  expect_cycle(hub, 7, 4);
  expect_det(small, small_ids, small_ref);
  expect_det(big, big_ids, big_ref);
  expect_cycle(big, 4095, big_budget);
}

// ---- Randomized algorithm ---------------------------------------------------------

class SinklessRandTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(SinklessRandTest, ValidOnRandomCubic) {
  const auto [n, seed] = GetParam();
  Graph g = build::random_regular(n, 3, seed);
  const auto res =
      sinkless_orientation_rand(g, shuffled_ids(g, seed), n, seed);
  EXPECT_TRUE(is_sinkless(g, res.tails));
  EXPECT_GT(res.rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SinklessRandTest,
    ::testing::Combine(::testing::Values(8, 32, 128, 512, 2048),
                       ::testing::Values(1, 2, 3, 4)));

TEST(SinklessRand, HandlesLoopsParallelsAndLowDegrees) {
  GraphBuilder b;
  b.add_nodes(5);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  Graph g = std::move(b).build();
  const auto res = sinkless_orientation_rand(g, sequential_ids(g), 5, 7);
  EXPECT_TRUE(is_sinkless(g, res.tails));
}

TEST(SinklessRand, FasterThanDeterministicAtScale) {
  // The headline separation at the base level: on a large instance the
  // randomized round count must be clearly below the deterministic one.
  Graph g = build::random_regular_simple(8192, 3, 10);
  const auto ids = shuffled_ids(g, 10);
  const auto det = sinkless_orientation_det(g, ids, 8192);
  const auto rnd = sinkless_orientation_rand(g, ids, 8192, 10);
  EXPECT_TRUE(is_sinkless(g, det.tails));
  EXPECT_TRUE(is_sinkless(g, rnd.tails));
  EXPECT_LT(rnd.rounds, det.report.rounds);
}

TEST(SinklessRand, SingleProposeRound) {
  EXPECT_EQ(sinkless_rand_propose_schedule(1 << 10), 1);
  EXPECT_EQ(sinkless_rand_propose_schedule(1 << 20), 1);
}

TEST(SinklessRand, RepairRadiusStaysTiny) {
  Graph g = build::random_regular_simple(4096, 3, 21);
  const auto res = sinkless_orientation_rand(g, shuffled_ids(g, 21), 4096, 21);
  EXPECT_TRUE(is_sinkless(g, res.tails));
  // O(log log n) w.h.p.: wildly generous bound.
  EXPECT_LE(res.max_repair_radius, 10);
}

TEST(SinklessRand, DeterministicInSeed) {
  Graph g = build::random_regular_simple(128, 3, 2);
  const auto ids = shuffled_ids(g, 2);
  const auto a = sinkless_orientation_rand(g, ids, 128, 42);
  const auto b = sinkless_orientation_rand(g, ids, 128, 42);
  EXPECT_EQ(a.tails, b.tails);
  EXPECT_EQ(a.rounds, b.rounds);
}

}  // namespace
}  // namespace padlock
