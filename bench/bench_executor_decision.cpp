// The executor decision ramp: the inline executor (shards = 1) against the
// pinned worker-team executor (shards = 4) on bench_micro's three engine
// rules — geometric-halt, Luby, propose-accept matching — over cycle and
// random cubic graphs at n = 2^12..2^E, at threads 1 and 4.
//
// bench_micro's engine rows cannot decide this above one thread:
// run_scenarios executes them on pool workers, where the inline
// executor's phases run unpooled while a pinned run still starts its own
// worker team. Here every run is dispatched from the main thread, so both
// executors get the same thread budget. Each cell runs R pairs,
// alternating which executor goes first; a row reports both medians and
// quartiles, the pairs the pinned executor won, and a verdict: a side wins
// when it takes at least nine tenths of the pairs and its median beats the
// other's by more than the other's interquartile range. Outputs of the
// two executors must be identical (exit 1 otherwise).
//
// Usage: bench_executor_decision [--repeat R] [--max-exp E] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algo/luby_mis.hpp"
#include "algo/matching.hpp"
#include "graph/builders.hpp"
#include "local/ids.hpp"
#include "local/message_engine.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"

#include "geometric_halt.hpp"

using namespace padlock;

namespace {

constexpr int kPinnedShards = 4;

struct Sample {
  double ms = 0;
  std::vector<std::uint64_t> output;
  int rounds = 0;
  std::int64_t bytes_slab = 0;
};

Sample run_once(const std::string& rule, const Graph& g, const IdMap& ids,
                int shards) {
  const ScopedEngineShards scope(shards);
  MessageEngineStats es;
  Sample s;
  const auto t0 = std::chrono::steady_clock::now();
  if (rule == "geometric-halt") {
    GeometricHalt alg(g.num_nodes());
    s.rounds = run_message_rounds(g, alg, 64, &es);
    s.output = std::move(alg.acc);
  } else if (rule == "luby") {
    const MisResult res = luby_mis(g, ids, 7, &es);
    s.rounds = res.rounds;
    s.output.assign(res.in_set.begin(), res.in_set.end());
  } else {
    const MatchingResult res = randomized_matching(g, ids, 7, &es);
    s.rounds = res.rounds;
    s.output.assign(res.in_match.begin(), res.in_match.end());
  }
  s.ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count();
  s.bytes_slab = es.bytes_slab;
  return s;
}

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double p) {  // linear interpolation between ranks
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

std::string samples_json(const std::vector<double>& v) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out << (i ? ", " : "") << fmt(v[i], 3);
  out << "]";
  return out.str();
}

bool parse_opt(const char* flag, const char* token, long long lo,
               long long hi, int* out) {
  const std::optional<long long> v = parse_integer(token, lo, hi);
  if (!v) {
    std::fprintf(stderr,
                 "bench_executor_decision: %s expects an integer in "
                 "%lld..%lld, got '%s'\n",
                 flag, lo, hi, token);
    return false;
  }
  *out = static_cast<int>(*v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int repeat = 10;
  int max_exp = 20;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[++i] : "";
    if (arg == "--repeat") {
      if (!parse_opt("--repeat", next, 1, 1000, &repeat)) return 2;
    } else if (arg == "--max-exp") {
      if (!parse_opt("--max-exp", next, 12, 22, &max_exp)) return 2;
    } else if (arg == "--json") {
      json_path = next;
    } else {
      std::fprintf(stderr,
                   "usage: bench_executor_decision [--repeat R] "
                   "[--max-exp E] [--json PATH]\n");
      return 2;
    }
  }

  Table t({"rule", "family", "n", "threads", "inline med (ms)",
           "pinned med (ms)", "pinned won", "verdict"});
  std::ostringstream rows;
  bool identical = true;
  for (const char* family : {"cycle", "regular"}) {
    for (int exp = 12; exp <= max_exp; exp += 2) {
      const std::size_t n = std::size_t{1} << exp;
      const Graph g = build::family(family, n, 3, 13);
      const IdMap ids = shuffled_ids(g, 5);
      for (const char* rule : {"geometric-halt", "luby", "matching"}) {
        for (const int threads : {1, 4}) {
          exec_context().threads = threads;
          std::vector<double> ms[2];
          Sample first[2];
          int pinned_won = 0;
          for (int r = 0; r < repeat; ++r) {
            double pair_ms[2] = {0, 0};
            for (int k = 0; k < 2; ++k) {
              const int side = (r + k) % 2;  // 0 = inline, 1 = pinned
              Sample s =
                  run_once(rule, g, ids, side == 0 ? 1 : kPinnedShards);
              pair_ms[side] = s.ms;
              ms[side].push_back(s.ms);
              if (r == 0) first[side] = std::move(s);
              else if (s.output != first[side].output) identical = false;
            }
            if (pair_ms[1] < pair_ms[0]) ++pinned_won;
          }
          if (first[0].output != first[1].output ||
              first[0].rounds != first[1].rounds)
            identical = false;
          const Quartiles qi = quartiles(ms[0]);
          const Quartiles qp = quartiles(ms[1]);
          const char* verdict = "tie";
          if (10 * pinned_won >= 9 * repeat &&
              qi.median - qp.median > qi.q3 - qi.q1)
            verdict = "pinned";
          else if (10 * (repeat - pinned_won) >= 9 * repeat &&
                   qp.median - qi.median > qp.q3 - qp.q1)
            verdict = "inline";
          t.add_row({rule, family, std::to_string(n), std::to_string(threads),
                     fmt(qi.median, 2), fmt(qp.median, 2),
                     std::to_string(pinned_won) + "/" +
                         std::to_string(repeat),
                     verdict});
          if (rows.tellp() > 0) rows << ",\n";
          rows << "  {\"rule\": \"" << rule << "\", \"family\": \"" << family
               << "\", \"nodes\": " << n << ", \"threads\": " << threads
               << ", \"rounds\": " << first[0].rounds
               << ", \"inline\": {\"q1_ms\": " << fmt(qi.q1, 3)
               << ", \"median_ms\": " << fmt(qi.median, 3)
               << ", \"q3_ms\": " << fmt(qi.q3, 3)
               << ", \"bytes_slab\": " << first[0].bytes_slab
               << ", \"ms\": " << samples_json(ms[0]) << "}"
               << ", \"pinned\": {\"shards\": " << kPinnedShards
               << ", \"q1_ms\": " << fmt(qp.q1, 3)
               << ", \"median_ms\": " << fmt(qp.median, 3)
               << ", \"q3_ms\": " << fmt(qp.q3, 3)
               << ", \"bytes_slab\": " << first[1].bytes_slab
               << ", \"ms\": " << samples_json(ms[1]) << "}"
               << ", \"pairs\": " << repeat
               << ", \"pinned_won\": " << pinned_won << ", \"verdict\": \""
               << verdict << "\"}";
        }
      }
    }
  }
  t.print();
  if (!identical) {
    std::fprintf(stderr,
                 "bench_executor_decision: the executors' outputs differ\n");
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"repeat\": " << repeat << ", \"pinned_shards\": "
        << kPinnedShards << ", \"rows\": [\n"
        << rows.str() << "\n]}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return identical ? 0 : 1;
}
