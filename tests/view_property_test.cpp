// Property suite for the flat-ball LocalView layer:
//
//  * every registered (problem, algorithm) pair re-verifies through strict
//    views on randomized instances of every build::family — a gather-style
//    rule that reads labels only through a LocalView accepts every node of
//    a verified output (so no checker read leaves its radius), and rejects
//    a planted violation;
//  * the epoch-stamped flat ball (BallScratch) is bit-identical to a
//    reference hash-map ball kept here (the implementation LocalView
//    shipped with before the flat rewrite);
//  * run_gather performs zero per-node heap allocation after warmup,
//    asserted through a global operator-new counting hook plus the
//    engine's slab-growth test hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <vector>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "local/engine.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

// ---- allocation-counting hook ----------------------------------------------
// Global operator new replacement for this test binary only: every heap
// allocation bumps the counter, so a test can assert an exact allocation
// budget around a call. (Aligned-new overloads are not replaced; none of
// the measured code uses over-aligned types.)

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

// The instance menu of the suite: every named family at two sizes, seeded.
std::vector<Graph> property_menu(std::uint64_t seed) {
  std::vector<Graph> graphs;
  for (const std::string& fam : build::family_names()) {
    for (const std::size_t n : {std::size_t{20}, std::size_t{48}}) {
      graphs.push_back(build::family(fam, n, 3, seed));
    }
  }
  return graphs;
}

// ---- reference hash-map ball -----------------------------------------------
// The pre-flat-rewrite ball: lazy BFS into an unordered_map. Kept here as
// the independent oracle the flat scratch must match bit for bit.

std::unordered_map<NodeId, int> reference_ball(const Graph& g, NodeId center,
                                               int radius) {
  std::unordered_map<NodeId, int> ball;
  ball.emplace(center, 0);
  std::vector<NodeId> frontier{center};
  for (int r = 0; r < radius; ++r) {
    std::vector<NodeId> next;
    for (const NodeId u : frontier) {
      for (int p = 0; p < g.degree(u); ++p) {
        const NodeId w = g.neighbor(u, p);
        if (ball.emplace(w, r + 1).second) next.push_back(w);
      }
    }
    frontier = std::move(next);
  }
  return ball;
}

TEST(FlatBall, BitIdenticalToReferenceHashBall) {
  for (const Graph& g : property_menu(7)) {
    const auto n = static_cast<NodeId>(g.num_nodes());
    for (const NodeId center : {NodeId{0}, n / 2, n - 1}) {
      for (const int radius : {0, 1, 2, 3}) {
        const auto ref = reference_ball(g, center, radius);
        LocalView view(g, center);
        view.extend(radius);
        for (NodeId v = 0; v < n; ++v) {
          const auto it = ref.find(v);
          ASSERT_EQ(view.knows_node(v), it != ref.end())
              << "center " << center << " radius " << radius << " node " << v;
          ASSERT_EQ(view.knows_ports(v),
                    it != ref.end() && it->second < radius);
          if (it != ref.end()) ASSERT_EQ(view.dist(v), it->second);
        }
      }
    }
  }
}

TEST(FlatBall, IncrementalExtensionMatchesReference) {
  const Graph g = build::family("regular", 64, 3, 11);
  LocalView view(g, 3);
  // Grow the same view in steps; each step must agree with a fresh
  // reference ball of that radius (exercises the incremental BFS path of
  // the scratch, not just one-shot materialization).
  for (const int radius : {1, 2, 4}) {
    view.extend(radius);
    const auto ref = reference_ball(g, 3, radius);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto it = ref.find(v);
      ASSERT_EQ(view.knows_node(v), it != ref.end());
      if (it != ref.end()) ASSERT_EQ(view.dist(v), it->second);
    }
  }
}

// ---- strict re-verification over the whole registry -----------------------
// For every registered pair: solve through the Runner, then re-verify the
// output with a gather rule that reads labels exclusively through a
// LocalView. Views are strict (any non-local read throws), so a clean run
// certifies the constraint radius.

struct GatherVerdict {
  NodeMap<char> accept;
  RoundReport report;

  friend bool operator==(const GatherVerdict&, const GatherVerdict&) = default;
};

// ne-LCL problems: C_N at v plus C_E at v's incident edges, radius 1.
GatherVerdict ne_lcl_gather(const ProblemSpec& problem, const Graph& g,
                            const NeLabeling& input,
                            const NeLabeling& output) {
  const auto lcl = problem.make_lcl(g);
  GatherVerdict out{NodeMap<char>(g, 1), {}};
  out.report = run_gather(g, [&](LocalView& view, NodeId v) {
    view.extend(1);
    const int deg = view.degree(v);
    std::vector<Label> edge_in(deg), edge_out(deg), half_in(deg),
        half_out(deg);
    for (int p = 0; p < deg; ++p) {
      const HalfEdge h = view.incidence(v, p);
      edge_in[p] = view.edge_data(input.edge, h.edge);
      edge_out[p] = view.edge_data(output.edge, h.edge);
      half_in[p] = view.half_data(input.half, h);
      half_out[p] = view.half_data(output.half, h);
    }
    const NodeEnv env{deg,
                      view.node_data(input.node, v),
                      view.node_data(output.node, v),
                      edge_in,
                      edge_out,
                      half_in,
                      half_out};
    bool ok = lcl->node_ok(env);
    for (int p = 0; ok && p < deg; ++p) {
      const EdgeId e = view.incidence(v, p).edge;
      EdgeEnv ee;
      ee.self_loop = view.is_self_loop(e);
      ee.edge_in = view.edge_data(input.edge, e);
      ee.edge_out = view.edge_data(output.edge, e);
      for (int side = 0; side < 2; ++side) {
        const NodeId u = view.endpoint(e, side);
        ee.node_in[side] = view.node_data(input.node, u);
        ee.node_out[side] = view.node_data(output.node, u);
        const HalfEdge hs{e, side};
        ee.half_in[side] = view.half_data(input.half, hs);
        ee.half_out[side] = view.half_data(output.half, hs);
      }
      ok = lcl->edge_ok(ee);
    }
    out.accept[v] = ok ? 1 : 0;
  });
  return out;
}

// dist2-coloring: color validity plus distinctness in the radius-2 ball.
GatherVerdict dist2_gather(const Graph& g, const NeLabeling& output) {
  GatherVerdict out{NodeMap<char>(g, 1), {}};
  out.report = run_gather(g, [&](LocalView& view, NodeId v) {
    view.extend(2);
    const Label mine = view.node_data(output.node, v);
    bool ok = mine >= 1;
    for (int p = 0; ok && p < view.degree(v); ++p) {
      const NodeId u = view.neighbor(v, p);
      if (u != v && view.node_data(output.node, u) == mine) ok = false;
      for (int q = 0; ok && q < view.degree(u); ++q) {
        const NodeId w = view.neighbor(u, q);
        if (w != v && view.node_data(output.node, w) == mine) ok = false;
      }
    }
    out.accept[v] = ok ? 1 : 0;
  });
  return out;
}

// ruling-set: label validity plus independence (domination is a global
// property, checked by the problem's own checker, not radius-bounded).
GatherVerdict ruling_set_gather(const Graph& g, const NeLabeling& output) {
  GatherVerdict out{NodeMap<char>(g, 1), {}};
  out.report = run_gather(g, [&](LocalView& view, NodeId v) {
    view.extend(1);
    const Label mine = view.node_data(output.node, v);
    bool ok = mine == 1 || mine == 2;
    if (mine == 2) {
      for (int p = 0; ok && p < view.degree(v); ++p) {
        const NodeId u = view.neighbor(v, p);
        if (u != v && view.node_data(output.node, u) == 2) ok = false;
      }
    }
    out.accept[v] = ok ? 1 : 0;
  });
  return out;
}

GatherVerdict gather_verify(const ProblemSpec& problem, const Graph& g,
                            const NeLabeling& input,
                            const NeLabeling& output) {
  if (problem.make_lcl) return ne_lcl_gather(problem, g, input, output);
  if (problem.name == "dist2-coloring") return dist2_gather(g, output);
  if (problem.name == "ruling-set") return ruling_set_gather(g, output);
  ADD_FAILURE() << "no gather verifier for problem " << problem.name
                << "; extend gather_verify";
  return GatherVerdict{NodeMap<char>(g, 0), {}};
}

TEST(StrictGatherVerify, AllRegisteredPairsOnAllFamilies) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  ASSERT_GE(registry.pairs().size(), 14u);
  std::size_t exercised = 0;
  for (const Graph& g : property_menu(5)) {
    for (const auto& [problem, algo] : registry.pairs()) {
      if (algo->precondition && !algo->precondition(g)) continue;
      RunOptions opts;
      opts.seed = 9;
      const SolveOutcome solved = run(*problem, *algo, g, opts);
      ASSERT_TRUE(solved.ok())
          << problem->name << "/" << algo->name << " failed verification";

      const NeLabeling input =
          problem->make_input ? problem->make_input(g) : NeLabeling(g);
      const GatherVerdict strict =
          gather_verify(*problem, g, input, solved.output);
      // The verified solution must re-verify through the views.
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(strict.accept[v], 1)
            << problem->name << "/" << algo->name << " rejected at node " << v;
      }
      ++exercised;
    }
  }
  // Every pair must have run on at least one instance of the menu.
  EXPECT_GE(exercised, registry.pairs().size());
}

// A planted violation must be rejected through the views.
TEST(StrictGatherVerify, PlantedViolationRejected) {
  const Graph g = build::family("regular", 32, 3, 3);
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  const ProblemSpec& problem = registry.problem("mis");
  RunOptions opts;
  opts.seed = 4;
  SolveOutcome solved = run(problem, registry.algo("mis", "luby"), g, opts);
  ASSERT_TRUE(solved.ok());
  solved.output.node[0] = solved.output.node[0] == 2 ? 1 : 2;  // corrupt
  const NeLabeling input(g);
  const GatherVerdict strict = gather_verify(problem, g, input, solved.output);
  EXPECT_EQ(strict.report.rounds, 1);
  bool rejected_somewhere = false;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    rejected_somewhere = rejected_somewhere || strict.accept[v] == 0;
  }
  EXPECT_TRUE(rejected_somewhere);
}

// A stale borrowed view — one whose shared scratch was reclaimed by a
// later view — must diagnose the lifetime-rule violation, not answer from
// the other center's ball.
TEST(BorrowedScratch, StaleViewThrowsInsteadOfWrongDistances) {
  const Graph g = build::cycle(16);
  BallScratch scratch;
  LocalView first(g, 0, scratch);
  first.extend(2);
  ASSERT_EQ(first.dist(2), 2);  // materialized
  LocalView second(g, 8, scratch);
  second.extend(1);
  ASSERT_EQ(second.dist(7), 1);  // reclaims the scratch
  EXPECT_THROW((void)first.dist(2), ContractViolation);
  EXPECT_THROW((void)first.knows_node(1), ContractViolation);
  // The reclaiming view keeps working.
  EXPECT_EQ(second.dist(9), 1);
}

// ---- zero per-node allocation after warmup ---------------------------------

TEST(GatherAllocation, ZeroPerNodeHeapAllocationAfterWarmup) {
  exec_context().threads = 1;  // serial: chunks run on this thread
  const Graph small = build::random_regular_simple(512, 3, 3);
  const Graph big = build::random_regular_simple(4096, 3, 3);
  // The rule itself is allocation-free: flat reads through the view only.
  const GatherFn rule = [](LocalView& view, NodeId v) {
    view.extend(2);
    std::uint64_t acc = 0;
    for (int p = 0; p < view.degree(v); ++p) {
      const NodeId w = view.neighbor(v, p);
      for (int q = 0; q < view.degree(w); ++q) acc += view.neighbor(w, q);
    }
    if (acc == ~std::uint64_t{0}) std::abort();  // keep acc observable
  };
  // Warmup: grows the thread's scratch slabs to the larger graph.
  run_gather(big, rule);
  run_gather(small, rule);
  const std::size_t growths_before = gather_scratch_stats().slab_growths;

  const std::size_t a0 = g_heap_allocs.load();
  run_gather(small, rule);
  const std::size_t small_allocs = g_heap_allocs.load() - a0;

  const std::size_t b0 = g_heap_allocs.load();
  run_gather(big, rule);
  const std::size_t big_allocs = g_heap_allocs.load() - b0;

  // 8x the nodes, same allocation count: nothing allocates per node. The
  // residual constant is per-run bookkeeping (the result NodeMap and the
  // std::function chunk wrappers).
  EXPECT_EQ(small_allocs, big_allocs);
  EXPECT_LE(big_allocs, 12u);
  // And the scratch slabs did not grow — the engine hook's view of the
  // same property.
  EXPECT_EQ(gather_scratch_stats().slab_growths, growths_before);
  EXPECT_GE(gather_scratch_stats().slab_capacity, big.num_nodes());
}

}  // namespace
}  // namespace padlock
