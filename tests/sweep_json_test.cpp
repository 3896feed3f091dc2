// Golden-snapshot test for the sweep JSON emitter plus the cold ≡ warm ≡
// threaded bit-identity property of run_batch's graph cache.
//
// The fixture tests/data/sweep_golden.json is the committed canonical
// byte-for-byte output of SweepOutcome::to_json for a small, serial,
// seed-pinned plan (wall-clock fields normalized to 0 — everything else,
// including the cache-hit fields and the skipped-row encoding, is pinned).
// Any emitter drift fails here; deliberate format changes regenerate the
// fixture with PADLOCK_REGEN_GOLDEN=1.
#include <gtest/gtest.h>

#include <string>

#include "core/graph_cache.hpp"
#include "core/runner.hpp"
#include "support/thread_pool.hpp"
#include "golden.hpp"

namespace padlock {
namespace {

// The pinned plan: two pairs × three menu entries, one of them a duplicate
// (so the cache-hit field is nonzero) and one skipping a pair (so the
// skipped encoding is pinned too). Serial and seed-pinned, hence
// deterministic up to wall clock.
ExecutionPlan golden_plan() {
  ExecutionPlan plan;
  plan.pairs = {{"mis", "luby"}, {"3-coloring", "cole-vishkin"}};
  plan.graphs = {{"cycle", 24, 3, 7},
                 {"cycle", 24, 3, 7},   // duplicate: a guaranteed cache hit
                 {"regular", 24, 3, 7}};  // cole-vishkin skips here
  plan.options.seed = 11;
  plan.repeat = 2;
  plan.threads = 1;
  return plan;
}

// Wall-clock fields are the only nondeterministic bytes; zero them.
void normalize_walls(SweepOutcome& outcome) {
  outcome.wall_ns = 0;
  for (SweepRow& row : outcome.rows) {
    row.wall_ns_min = 0;
    row.wall_ns_median = 0;
  }
}

TEST(SweepJson, MatchesCommittedGoldenSnapshot) {
  GraphCache::instance().clear();  // pin the hit/miss counts of the batch
  SweepOutcome outcome = run_batch(golden_plan());
  ASSERT_TRUE(outcome.all_ok());
  EXPECT_GE(outcome.cache_hits, 1u);
  normalize_walls(outcome);
  const std::string json = to_json(outcome);

  golden::expect_matches(golden::data_path("sweep_golden.json"), json);
}

TEST(SweepCache, ColdRunBitIdenticalToWarmAndThreaded) {
  GraphCache::instance().clear();
  ExecutionPlan plan = golden_plan();

  // Cold: every distinct spec builds (the duplicate row is the only hit).
  SweepOutcome cold = run_batch(plan);
  EXPECT_TRUE(cold.cached);
  EXPECT_EQ(cold.cache_hits, 1u);
  EXPECT_EQ(cold.cache_misses, 2u);

  // Warm: the whole menu is served from the cache.
  SweepOutcome warm = run_batch(plan);
  EXPECT_EQ(warm.cache_misses, 0u);

  plan.threads = 4;
  SweepOutcome threaded = run_batch(plan);
  EXPECT_EQ(threaded.threads, 4);

  // ... without perturbing a single result byte: after normalizing the
  // wall clocks, the worker count and the cache counters themselves, the
  // three JSON renderings are identical.
  for (SweepOutcome* o : {&cold, &warm, &threaded}) {
    normalize_walls(*o);
    o->threads = 0;
    o->cache_hits = 0;
    o->cache_misses = 0;
  }
  EXPECT_EQ(to_json(cold), to_json(warm));
  EXPECT_EQ(to_json(cold), to_json(threaded));
}

// FIFO eviction at the fixed capacity: the 33rd distinct spec evicts the
// first, and a shared_ptr handed out for the evicted entry stays valid.
TEST(SweepCache, FifoEvictsOldestAtFixedCapacity) {
  GraphCache cache;  // private instance; leaves the process cache alone
  const auto first = cache.get_or_build("cycle", 8, 3, 1);
  for (std::size_t n = 9; n < 8 + GraphCache::kCapacity; ++n) {
    (void)cache.get_or_build("cycle", n, 3, 1);
  }
  EXPECT_EQ(cache.size(), GraphCache::kCapacity);
  EXPECT_EQ(cache.stats().evictions, 0u);

  (void)cache.get_or_build("cycle", 8 + GraphCache::kCapacity, 3, 1);
  EXPECT_EQ(cache.size(), GraphCache::kCapacity);
  EXPECT_EQ(cache.stats().evictions, 1u);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->num_nodes(), 8u);  // the evicted instance is still alive

  // The first spec was the one evicted: asking again rebuilds it, which
  // evicts the next-oldest (n = 9) while n = 10 stays cached.
  bool hit = true;
  (void)cache.get_or_build("cycle", 8, 3, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().evictions, 2u);
  (void)cache.get_or_build("cycle", 10, 3, 1, &hit);
  EXPECT_TRUE(hit);
}

// A second batch over the same menu is served entirely from the cache.
TEST(SweepCache, CrossBatchReuseServesWholeMenu) {
  GraphCache::instance().clear();
  const ExecutionPlan plan = golden_plan();
  const SweepOutcome first = run_batch(plan);
  const SweepOutcome second = run_batch(plan);
  EXPECT_GE(first.cache_misses, 1u);
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_EQ(second.cache_hits,
            static_cast<std::uint64_t>(plan.graphs.size()));
}

}  // namespace
}  // namespace padlock
