// Shared plumbing of the padlock end-to-end benchmark: the run
// configuration, the in-memory span recorder of traced runs, and the raw
// record each workload hands back. The padlock_perfbench binary only
// measures and checks; run.py turns the raw record into the reported metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;  // pool threads = client connections = nproc
};

/// One timed operation: a verified run (bulk-2e20), a whole sweep
/// (landscape), or one request (serve-tcp).
struct OpRecord {
  std::string kind;
  double ms = 0;
  /// The outputs were checked and found correct (checker verdicts, and for
  /// serve the streamed rows matching the offline reference).
  bool ok = false;
  std::uint64_t edges = 0;   // input edges of verified runs/rows
  std::int64_t rounds = 0;   // LOCAL rounds of those runs/rows
  std::size_t rows = 0;      // landscape: rows of the sweep ...
  std::size_t failed_rows = 0;  // ... and how many failed
  std::string expect;        // serve: expected terminal answer ...
  std::string answer;        // ... and the answer received
};

struct Phase {
  bool traced = false;
  double wall_s = 0;
  std::vector<OpRecord> ops;
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // id of the operation span it belongs to
  std::string name;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Thread-safe in-memory span store; spans are written out with the raw
/// record when the run ends.
class Tracer {
 public:
  std::uint64_t next_id() { return next_.fetch_add(1) + 1; }

  void add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<std::uint64_t> next_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// A span that ends when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent,
             std::uint64_t op)
      : tracer_(tracer),
        span_{tracer.next_id(), parent, op, std::move(name), now_ns(), 0} {
    if (span_.op == 0) span_.op = span_.id;
  }
  ~ScopedSpan() {
    span_.t1 = now_ns();
    tracer_.add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

inline std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

struct Raw {
  std::vector<double> setup_s;
  std::vector<Phase> phases;
  /// Sum of LOCAL rounds over one pass of the workload's fixed operation
  /// set; identical for every pass with the same seed.
  std::int64_t local_rounds = 0;
  /// FNV-1a digest of the outputs that must repeat for a fixed seed (the
  /// row set: pair, instance, status and rounds of every run or row).
  std::uint64_t outputs_digest = 0;
  /// Correctness checks that failed (determinism, row sets, drain).
  std::vector<std::string> errors;
  bool drained = true;  // serve-tcp: Server::stop() drained cleanly
  /// Layer values measured outside the spans (counters, offline timings).
  std::vector<std::pair<std::string, double>> layers;
  /// serve-tcp: offline run_batch wall per request kind.
  std::vector<std::pair<std::string, double>> offline_ms;
  std::vector<Span> spans;
};

/// The traced path disagreed with the untraced one: the benchmark fails
/// instead of reporting numbers.
class TraceMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

Raw run_bulk(const Config& cfg);
Raw run_landscape(const Config& cfg);
Raw run_serve_tcp(const Config& cfg);

}  // namespace perfbench
