// Builder reference map: (family, n, degree, seed) -> graph_fingerprint.
//
// Every downstream golden (sweep, file-family, engine reference map, scale)
// is keyed on instances these builders produce, so the builders must stay
// bit-identical: the same endpoints in edge order, the same port order at
// every node, the same rng draws. The committed map
// tests/data/builder_reference_map.json was captured before the builders
// were made linear-time; rerun with PADLOCK_REGEN_GOLDEN=1 to rewrite it.
//
// high-girth entries are rebuilt at threads 1 and 4: their initial
// short-cycle scan runs on the pool above 2^15 nodes, and its result must
// not depend on the worker count.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/builders.hpp"
#include "graph/line_graph.hpp"
#include "local/fingerprint.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "golden.hpp"

namespace padlock {
namespace {

std::string hex64(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

struct Entry {
  std::string family;
  std::size_t nodes;
  int degree;
  std::uint64_t seed;
  std::function<Graph()> build;
};

std::vector<Entry> reference_entries() {
  std::vector<Entry> out;
  for (const std::string& fam : build::family_names()) {
    for (std::size_t n : {std::size_t{1000}, std::size_t{4096},
                          std::size_t{65536}}) {
      if (fam == "high-girth" && n > 32768) n = 32768;
      for (const int d : {3, 4})
        for (const std::uint64_t seed : {1ull, 2ull})
          out.push_back({fam, n, d, seed,
                         [=] { return build::family(fam, n, d, seed); }});
    }
  }
  out.push_back({"regular", std::size_t{1} << 20, 3, 2, [] {
                   return build::family("regular", std::size_t{1} << 20, 3,
                                        2);
                 }});
  // Above one 2^15-source scan chunk, so threads 4 runs the pooled scan.
  out.push_back({"high-girth", std::size_t{1} << 17, 3, 1, [] {
                   return build::family("high-girth", std::size_t{1} << 17, 3,
                                        1);
                 }});
  // Near-complete instances: make_simple has to switch densely.
  for (int d = 2; d <= 6; ++d)
    for (std::size_t n = d + 1; n <= static_cast<std::size_t>(d) + 3; ++n) {
      if ((n * static_cast<std::size_t>(d)) % 2 != 0) continue;
      for (const std::uint64_t seed : {1ull, 2ull})
        out.push_back({"random_regular_simple", n, d, seed, [=] {
                         return build::random_regular_simple(n, d, seed);
                       }});
    }
  out.push_back({"line_graph(regular)", 4096, 3, 1, [] {
                   return line_graph(build::family("regular", 4096, 3, 1))
                       .graph;
                 }});
  return out;
}

// One map line. A builder that refuses its input (make_simple's switch
// guard runs out on some near-complete instances) records "refused", so
// the refusal is pinned as well.
std::string reference_line(const Entry& e) {
  std::string fingerprint;
  try {
    fingerprint = hex64(graph_fingerprint(e.build()));
  } catch (const ContractViolation&) {
    fingerprint = "refused";
  }
  std::ostringstream line;
  line << "{\"family\": \"" << e.family << "\", \"nodes\": " << e.nodes
       << ", \"degree\": " << e.degree << ", \"seed\": " << e.seed
       << ", \"fingerprint\": \"" << fingerprint << "\"}";
  return line.str();
}

struct ThreadsGuard {
  int saved = exec_context().threads;
  ~ThreadsGuard() { exec_context().threads = saved; }
};

TEST(BuilderReference, EveryBuilderMatchesCommittedFingerprints) {
  const std::vector<Entry> entries = reference_entries();
  const std::string path = golden::data_path("builder_reference_map.json");
  ThreadsGuard guard;
  exec_context().threads = 1;
  std::vector<std::string> lines;
  for (const Entry& e : entries) lines.push_back(reference_line(e));
  golden::expect_matches(path, golden::rows_json(lines));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (e.family != "high-girth") continue;
    exec_context().threads = 4;
    EXPECT_EQ(reference_line(e), lines[i])
        << "builder reference entry " << i << " at threads 4";
  }
}

}  // namespace
}  // namespace padlock
