// File-backed families end to end on the committed sample: the full
// registered (problem, algorithm) menu runs on `file:tests/data/
// p2p-sample.txt` and its results are pinned by a golden-snapshot map —
// the FAM-style reference-output fixture of the ingestion subsystem.
//
// Three properties are pinned:
//   * format stability — the committed tests/data/p2p-sample.pg reloads to
//     exactly the graph the committed text sample parses to, so any writer
//     or loader drift (or accidental format change without a version bump)
//     fails here;
//   * reference outputs — rounds, stats, statuses and sizes of all
//     registered pairs on the sample match tests/data/file_family_golden
//     .json byte for byte (wall clocks and the machine-dependent sample
//     path normalized out);
//   * execution-mode bit-identity — cold vs warm graph cache and serial vs
//     threaded runs of the file-family plan render identical JSON.
//
// Deliberate changes regenerate both fixtures with PADLOCK_REGEN_GOLDEN=1.
#include <gtest/gtest.h>

#include <string>

#include "core/graph_cache.hpp"
#include "core/runner.hpp"
#include "io/dot.hpp"
#include "store/pg.hpp"
#include "golden.hpp"

namespace padlock {
namespace {

using golden::data_path;

// The family name embeds an absolute path that differs per checkout; the
// golden fixture stores the normalized basename form instead.
constexpr const char* kNormalizedFamily = "file:p2p-sample.txt";

ExecutionPlan sample_plan() {
  ExecutionPlan plan;
  // pairs empty = every registered pair: the golden map grows automatically
  // when a new algorithm is registered (regenerating the fixture makes the
  // addition an explicit, reviewable diff).
  plan.graphs = {{"file:" + data_path("p2p-sample.txt"), 0, 0, 0}};
  plan.options.seed = 11;
  plan.repeat = 1;
  plan.threads = 1;
  return plan;
}

void normalize(SweepOutcome& outcome) {
  outcome.wall_ns = 0;
  for (SweepRow& row : outcome.rows) {
    row.wall_ns_min = 0;
    row.wall_ns_median = 0;
    if (row.graph.family.rfind("file:", 0) == 0)
      row.graph.family = kNormalizedFamily;
  }
}

// ---- format stability of the committed .pg ---------------------------------

TEST(FileFamilyGolden, CommittedPgReloadsToTheCommittedTextSample) {
  const Graph from_text = store::load_graph_file(data_path("p2p-sample.txt"));

  if (golden::regenerated(data_path("p2p-sample.pg"), [&] {
        store::write_pg(data_path("p2p-sample.pg"), from_text);
      }))
    return;

  const Graph from_pg = store::load_pg(data_path("p2p-sample.pg"));
  ASSERT_EQ(from_pg.num_nodes(), from_text.num_nodes());
  ASSERT_EQ(from_pg.num_edges(), from_text.num_edges());
  EXPECT_EQ(from_pg.max_degree(), from_text.max_degree());
  for (EdgeId e = 0; e < from_text.num_edges(); ++e)
    ASSERT_EQ(from_pg.endpoints(e), from_text.endpoints(e)) << "edge " << e;
  // Port numbering included: the DOT rendering pins the whole structure.
  EXPECT_EQ(io::dot_string(from_pg), io::dot_string(from_text))
      << "committed p2p-sample.pg drifted from the text sample; regenerate "
         "with PADLOCK_REGEN_GOLDEN=1 if the format change is deliberate";

  // Both committed forms fingerprint stably (the cache-key identity).
  EXPECT_EQ(store::file_fingerprint(data_path("p2p-sample.pg")),
            store::read_pg_info(data_path("p2p-sample.pg")).checksum);
}

// ---- reference outputs of the full registered menu -------------------------

TEST(FileFamilyGolden, AllRegisteredPairsMatchTheGoldenMap) {
  GraphCache::instance().clear();  // pin the batch's hit/miss counts
  SweepOutcome outcome = run_batch(sample_plan());

  // The sample is a normalized simple graph: every row must be ok or a
  // legitimate precondition skip — never an error or a verification
  // failure.
  for (const SweepRow& row : outcome.rows)
    EXPECT_FALSE(row.failed()) << row.problem << "/" << row.algo << ": "
                               << row.error << row.note;
  std::size_t ok_rows = 0;
  for (const SweepRow& row : outcome.rows) ok_rows += row.ok() ? 1 : 0;
  EXPECT_GE(ok_rows, 10u) << "suspiciously few pairs ran on the sample";

  normalize(outcome);
  const std::string json = to_json(outcome);
  const std::string path = data_path("file_family_golden.json");

  golden::expect_matches(path, json);
}

// ---- execution-mode bit-identity -------------------------------------------

TEST(FileFamilyGolden, ColdWarmAndThreadedRunsAreBitIdentical) {
  GraphCache::instance().clear();
  ExecutionPlan plan = sample_plan();

  SweepOutcome cold_serial = run_batch(plan);  // right after clear(): a miss
  EXPECT_EQ(cold_serial.cache_hits, 0u);
  EXPECT_EQ(cold_serial.cache_misses, 1u);

  SweepOutcome warm_serial = run_batch(plan);
  EXPECT_EQ(warm_serial.cache_misses, 0u);

  plan.threads = 4;
  SweepOutcome warm_threaded = run_batch(plan);
  EXPECT_EQ(warm_threaded.threads, 4);

  for (SweepOutcome* o : {&cold_serial, &warm_serial, &warm_threaded}) {
    normalize(*o);
    o->threads = 0;  // resolved worker count differs by design
    o->cache_hits = 0;
    o->cache_misses = 0;
  }
  const std::string reference = to_json(cold_serial);
  EXPECT_EQ(reference, to_json(warm_serial))
      << "warm file-family run diverged from the cold one";
  EXPECT_EQ(reference, to_json(warm_threaded))
      << "threaded file-family run diverged from the serial one";
}

// The .pg form of the sample produces the same rows as the text form: the
// reference-output map is a property of the *graph*, not of the container
// it was loaded from.
TEST(FileFamilyGolden, PgAndTextFamiliesProduceIdenticalRows) {
  GraphCache::instance().clear();
  ExecutionPlan plan = sample_plan();
  SweepOutcome from_text = run_batch(plan);

  plan.graphs = {{"file:" + data_path("p2p-sample.pg"), 0, 0, 0}};
  SweepOutcome from_pg = run_batch(plan);

  for (SweepOutcome* o : {&from_text, &from_pg}) {
    normalize(*o);
    for (SweepRow& row : o->rows) row.graph.family = "file:<sample>";
    o->cache_hits = 0;
    o->cache_misses = 0;
  }
  EXPECT_EQ(to_json(from_text), to_json(from_pg));
}

}  // namespace
}  // namespace padlock
