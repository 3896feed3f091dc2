// Scale golden for the ball-search solvers: sinkless-orientation/
// short-cycle-det and the two decomposition-sweep pairs at n = 4096.
//
// The 192-node engine_reference_map.json is too small for a radius-bounded
// search to differ from a whole-graph one, so this map pins the labeling
// fingerprint, the round count and the per-node round fingerprint at a size
// where balls of radius log n no longer cover the graph. The committed file
// tests/data/scale_golden.json was captured before the searches were
// bounded; rerun with PADLOCK_REGEN_GOLDEN=1 to rewrite it.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "local/fingerprint.hpp"
#include "golden.hpp"

namespace padlock {
namespace {

std::string hex64(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

struct Entry {
  std::string problem, algo;
  std::vector<std::string> families;
};

std::vector<std::string> scale_golden_lines() {
  const std::vector<Entry> menu = {
      {"sinkless-orientation",
       "short-cycle-det",
       {"regular", "high-girth", "bounded", "tree"}},
      {"mis", "decomposition-sweep", {"regular", "cycle", "tree"}},
      {"coloring", "decomposition-sweep", {"regular", "cycle", "tree"}},
  };
  constexpr std::size_t kNodes = 4096;
  std::vector<std::string> lines;
  for (const Entry& e : menu) {
    for (const std::string& fam : e.families) {
      for (const std::uint64_t seed : {1ull, 2ull}) {
        const Graph g = build::family(fam, kNodes, 3, seed);
        RunOptions opts;
        opts.seed = seed;
        const SolveOutcome out = run(e.problem, e.algo, g, opts);
        EXPECT_TRUE(out.ok()) << e.problem << "/" << e.algo << " @" << fam;
        std::ostringstream line;
        line << "{\"pair\": \"" << e.problem << "/" << e.algo
             << "\", \"family\": \"" << fam << "\", \"nodes\": " << kNodes
             << ", \"seed\": " << seed << ", \"fingerprint\": \""
             << hex64(labeling_fingerprint(out.output))
             << "\", \"rounds\": " << out.rounds.rounds
             << ", \"node_rounds\": \""
             << hex64(node_map_fingerprint(out.rounds.node_rounds)) << "\"}";
        lines.push_back(line.str());
      }
    }
  }
  return lines;
}

TEST(ScaleGolden, BallSearchSolversMatchCommittedOutputs) {
  const std::vector<std::string> lines = scale_golden_lines();
  const std::string path = golden::data_path("scale_golden.json");
  golden::expect_matches(path, golden::rows_json(lines));
}

}  // namespace
}  // namespace padlock
