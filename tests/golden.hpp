// Golden files under tests/data: the compare-or-regenerate step every
// golden test shares. Run a test with PADLOCK_REGEN_GOLDEN=1 to rewrite its
// file (the test then reports itself skipped); otherwise the committed
// file must match byte for byte.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#ifndef PADLOCK_TEST_DATA_DIR
#error "PADLOCK_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

namespace padlock::golden {

inline std::string data_path(const std::string& name) {
  return std::string(PADLOCK_TEST_DATA_DIR) + "/" + name;
}

/// With PADLOCK_REGEN_GOLDEN set: `write` rewrites the golden file at
/// `path`, the running test is marked skipped, and the result is true.
inline bool regenerated(const std::string& path,
                        const std::function<void()>& write) {
  if (std::getenv("PADLOCK_REGEN_GOLDEN") == nullptr) return false;
  write();
  [&] { GTEST_SKIP() << "regenerated " << path; }();
  return true;
}

/// The reference-map layout: {"rows": [ one line per row ]}.
inline std::string rows_json(const std::vector<std::string>& lines) {
  std::string out = "{\"rows\": [\n";
  for (std::size_t i = 0; i < lines.size(); ++i)
    out += lines[i] + (i + 1 < lines.size() ? ",\n" : "\n");
  return out + "]}\n";
}

/// Expects the golden file at `path` to hold exactly `actual` (or rewrites
/// it under PADLOCK_REGEN_GOLDEN=1). A mismatch names the file and its
/// first differing line.
inline void expect_matches(const std::string& path,
                           const std::string& actual) {
  if (regenerated(path, [&] {
        std::ofstream(path, std::ios::binary) << actual;
      }))
    return;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with PADLOCK_REGEN_GOLDEN=1)";
  std::ostringstream committed;
  committed << in.rdbuf();
  if (committed.str() == actual) return;
  std::istringstream want(committed.str()), got(actual);
  std::string w, g;
  int line = 0;
  do {
    ++line;
    w.clear();
    g.clear();
    std::getline(want, w);
    std::getline(got, g);
  } while (w == g && (want || got));
  ADD_FAILURE() << path << " differs from the computed output at line "
                << line << ":\n  committed: " << w << "\n  computed:  " << g
                << "\nif the change is deliberate, regenerate with "
                   "PADLOCK_REGEN_GOLDEN=1";
}

}  // namespace padlock::golden
