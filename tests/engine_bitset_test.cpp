// Unit suite for the engine-v3 layout primitives (local/engine_bitset.hpp)
// plus the two engine behaviors that depend on them end to end:
//
//  * WordBitset: single-bit ops, word-granular masked OR/AND-NOT, the
//    set_range/reset_range boundary arithmetic (single-word, word-aligned,
//    straddling — checked against a bit-by-bit reference), ctz iteration
//    order, popcount, and padding-bit hygiene;
//  * PresenceBuffers: round-parity buffer selection and the planted
//    stale-bit argument — a bit set in round r must never be visible to a
//    same-parity later round, which is exactly the leak the engine's
//    end-of-round clear retires (a silent-but-active node would otherwise
//    replay its two-rounds-old message);
//  * phase-dispatch pinning: tiny frontiers run serial even at threads=4
//    (kEnginePoolMinWords), large frontiers pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/builders.hpp"
#include "graph/graph.hpp"
#include "local/engine_bitset.hpp"
#include "local/message_engine.hpp"
#include "support/thread_pool.hpp"

namespace padlock {
namespace {

class EngineBitsetTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = exec_context(); }
  void TearDown() override { exec_context() = saved_; }

 private:
  ExecContext saved_;
};

// ---- WordBitset single-bit ops ---------------------------------------------

TEST(WordBitsetTest, SetTestResetAcrossWordBoundary) {
  WordBitset b(200);
  EXPECT_EQ(b.num_words(), 4u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                              std::size_t{127}, std::size_t{128},
                              std::size_t{199}}) {
    EXPECT_FALSE(b.test(i));
    b.set(i);
    EXPECT_TRUE(b.test(i));
  }
  EXPECT_EQ(b.count(), 6u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(127));
  EXPECT_EQ(b.count(), 5u);
}

TEST(WordBitsetTest, AtomicOpsMatchPlainOps) {
  WordBitset plain(130), atomic(130);
  for (const std::size_t i : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{129}}) {
    plain.set(i);
    atomic.or_word(i / 64, std::uint64_t{1} << (i % 64), /*shared=*/true);
  }
  plain.reset(63);
  atomic.andnot_word(0, std::uint64_t{1} << 63, /*shared=*/true);
  for (std::size_t i = 0; i < 130; ++i)
    EXPECT_EQ(plain.test(i), atomic.test_atomic(i)) << "bit " << i;
}

TEST(WordBitsetTest, FetchSetReturnsPreviousValue) {
  WordBitset b(100);
  EXPECT_FALSE(b.fetch_set_atomic(70));
  EXPECT_TRUE(b.fetch_set_atomic(70));
  EXPECT_TRUE(b.test(70));
  // Setting a different bit of the same word does not perturb bit 70.
  EXPECT_FALSE(b.fetch_set_atomic(65));
  EXPECT_TRUE(b.test(70));
}

// ---- masked word ops and ranges --------------------------------------------

TEST(WordBitsetTest, OrWordAndnotWordBothSharingModes) {
  for (const bool shared : {false, true}) {
    WordBitset b(128);
    b.or_word(0, 0xff00, shared);
    b.or_word(1, 0x1, shared);
    EXPECT_EQ(b.word(0), 0xff00u);
    EXPECT_EQ(b.word(1), 0x1u);
    b.andnot_word(0, 0x0f00, shared);
    EXPECT_EQ(b.word(0), 0xf000u);
  }
}

/// Bit-by-bit reference for the range ops' boundary arithmetic.
void reference_range(WordBitset& b, std::size_t begin, std::size_t end,
                     bool value) {
  for (std::size_t i = begin; i < end; ++i) {
    if (value)
      b.set(i);
    else
      b.reset(i);
  }
}

TEST(WordBitsetTest, SetRangeMatchesReferenceOnBoundaryMenu) {
  // Ranges chosen to hit every branch: empty, single-bit, within one word,
  // exactly one word, word-aligned multi-word, straddling with partial
  // boundary words on both sides, and up-to-the-padded-end.
  const std::vector<std::pair<std::size_t, std::size_t>> menu = {
      {5, 5},    {17, 18},  {3, 40},    {0, 64},   {64, 192},
      {10, 200}, {63, 65},  {127, 129}, {60, 260}, {250, 300},
  };
  for (const bool shared : {false, true}) {
    for (const auto& [begin, end] : menu) {
      WordBitset fast(300), ref(300);
      fast.set_range(begin, end, shared);
      reference_range(ref, begin, end, true);
      for (std::size_t w = 0; w < ref.num_words(); ++w)
        EXPECT_EQ(fast.word(w), ref.word(w))
            << "set_range [" << begin << ", " << end << ") word " << w
            << " shared=" << shared;
    }
  }
}

TEST(WordBitsetTest, ResetRangeMatchesReferenceOnBoundaryMenu) {
  const std::vector<std::pair<std::size_t, std::size_t>> menu = {
      {5, 5},    {17, 18},  {3, 40},    {0, 64},   {64, 192},
      {10, 200}, {63, 65},  {127, 129}, {60, 260}, {250, 300},
  };
  for (const bool shared : {false, true}) {
    for (const auto& [begin, end] : menu) {
      WordBitset fast(300), ref(300);
      // Start from all-set (within size) so clears are observable.
      fast.set_range(0, 300, false);
      ref.set_range(0, 300, false);
      fast.reset_range(begin, end, shared);
      reference_range(ref, begin, end, false);
      for (std::size_t w = 0; w < ref.num_words(); ++w)
        EXPECT_EQ(fast.word(w), ref.word(w))
            << "reset_range [" << begin << ", " << end << ") word " << w
            << " shared=" << shared;
    }
  }
}

TEST(WordBitsetTest, RangeOpsPreserveNeighboringBits) {
  WordBitset b(256);
  b.set(2);
  b.set(130);
  b.set(255);
  b.set_range(64, 128, true);  // word 1 exactly
  EXPECT_TRUE(b.test(2));
  EXPECT_TRUE(b.test(130));
  EXPECT_TRUE(b.test(255));
  EXPECT_EQ(b.count(), 64u + 3u);
  b.reset_range(64, 128, true);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(130));
}

// ---- iteration and clearing ------------------------------------------------

TEST(WordBitsetTest, ForEachSetBitVisitsAscendingAcrossWords) {
  WordBitset b(300);
  const std::vector<std::size_t> planted = {0, 1, 63, 64, 65, 128, 191, 299};
  for (const std::size_t i : planted) b.set(i);
  std::vector<std::size_t> seen;
  for_each_set_bit(b, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, planted);
}

TEST(WordBitsetTest, ForEachSetBitOnEmptyAndDenseWords) {
  std::vector<std::size_t> seen;
  for_each_set_bit(std::uint64_t{0}, 64, [&](std::size_t i) {
    seen.push_back(i);
  });
  EXPECT_TRUE(seen.empty());
  for_each_set_bit(~std::uint64_t{0}, 128, [&](std::size_t i) {
    seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 64u);
  EXPECT_EQ(seen.front(), 128u);
  EXPECT_EQ(seen.back(), 191u);
}

TEST(WordBitsetTest, ClearAllAndCountAndAny) {
  WordBitset b(200);
  EXPECT_FALSE(b.any());
  b.set_range(10, 150, false);
  EXPECT_TRUE(b.any());
  EXPECT_EQ(b.count(), 140u);
  b.clear_all();
  EXPECT_FALSE(b.any());
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t w = 0; w < b.num_words(); ++w) EXPECT_EQ(b.word(w), 0u);
}

// ---- PresenceBuffers: parity selection and the stale-bit argument ----------

TEST(PresenceBuffersTest, RoundParitySelectsAlternatingBuffers) {
  PresenceBuffers pres(128);
  pres.buffer(1).set(7);
  EXPECT_TRUE(pres.buffer(3).test(7));    // same parity, same buffer
  EXPECT_FALSE(pres.buffer(2).test(7));   // other parity, other buffer
  EXPECT_TRUE(pres.buffer(101).test(7));
  pres.buffer(2).set(9);
  EXPECT_FALSE(pres.buffer(1).test(9));
  EXPECT_TRUE(pres.buffer(4).test(9));
}

/// A node that speaks only in round 1, stays active and silent afterwards.
/// Its neighbor records per-round inbox presence. Round 3 reuses round 1's
/// parity buffer, so a missing end-of-round clear would replay the round-1
/// message there — the exact stale-presence leak this probe plants.
struct SilenceProbe {
  using Message = int;
  std::vector<int> heard;  // round -> 1 if node 1 saw node 0's message
  int last_round = 0;

  SilenceProbe() : heard(8, -1) {}

  std::optional<Message> send(NodeId v, int, int round) {
    if (v == 0 && round == 1) return 42;
    return std::nullopt;
  }
  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    if (v != 1) return;
    heard[static_cast<std::size_t>(round)] = inbox[0] ? 1 : 0;
    last_round = round;
  }
  bool done(NodeId) const { return last_round >= 5; }
};

TEST_F(EngineBitsetTest, StalePresenceBitCannotLeakAcrossParityReuse) {
  exec_context().threads = 1;
  GraphBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  SilenceProbe alg;
  run_message_rounds(g, alg, 100);
  EXPECT_EQ(alg.heard[1], 1);  // the one genuine message
  EXPECT_EQ(alg.heard[2], 0);  // other parity: trivially clean
  EXPECT_EQ(alg.heard[3], 0);  // same parity as round 1: the planted leak
  EXPECT_EQ(alg.heard[5], 0);  // stays clean forever after
}

// ---- phase-dispatch pinning: tiny frontiers never pool ---------------------

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

TEST_F(EngineBitsetTest, TinyFrontiersStaySerialEvenWithWorkers) {
  exec_context().threads = 4;
  // 96 nodes = 2 frontier words, far below kEnginePoolMinWords: every
  // phase must run inline on the calling thread.
  const Graph g = build::family("cycle", 96, 3, 7);
  Countdown alg(g.num_nodes(), 6);
  MessageEngineStats stats;
  run_message_rounds(g, alg, 8, &stats);
  EXPECT_EQ(stats.pooled_phases, 0);
  EXPECT_GT(stats.serial_phases, 0);
}

TEST_F(EngineBitsetTest, LargeFrontiersPoolWithWorkers) {
  exec_context().threads = 4;
  // 8192 nodes = 128 frontier words >= kEnginePoolMinWords: the busy
  // phases must go through the pool (and only them — the final wind-down
  // rounds may still run serial).
  const Graph g = build::family("regular", 8192, 3, 7);
  Countdown alg(g.num_nodes(), 6);
  MessageEngineStats stats;
  run_message_rounds(g, alg, 8, &stats);
  EXPECT_GT(stats.pooled_phases, 0);
}

TEST_F(EngineBitsetTest, SerialRunNeverPools) {
  exec_context().threads = 1;
  const Graph g = build::family("regular", 8192, 3, 7);
  Countdown alg(g.num_nodes(), 6);
  MessageEngineStats stats;
  run_message_rounds(g, alg, 8, &stats);
  EXPECT_EQ(stats.pooled_phases, 0);
  EXPECT_GT(stats.serial_phases, 0);
}

}  // namespace
}  // namespace padlock
