// padlock_perfbench — measures one workload of the padlock end-to-end
// benchmark and writes its raw record (op timings, checks, spans) as JSON.
//
// Usage: padlock_perfbench --workload bulk-2e20|landscape|serve-tcp
//                          --seed N --seconds S --trace 0|1 --out PATH
//
// Pool threads and client connections are the CPUs the process may run on.
// run.py builds this binary, runs it, and computes the metrics from the
// record. Exit status: 0 record written, 1 the run failed (including a
// traced run that disagrees with the untraced one), 2 usage.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "serve/json.hpp"
#include "support/parse.hpp"
#include "support/thread_pool.hpp"

namespace {

using padlock::serve::json_quote;
using perfbench::Raw;

void append_number(std::ostringstream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

std::string raw_json(const perfbench::Config& cfg, const Raw& raw,
                     long peak_rss_kb) {
  std::ostringstream out;
  out << "{\"workload\": " << json_quote(cfg.workload)
      << ", \"seed\": " << cfg.seed << ", \"threads\": " << cfg.threads
      << ", \"trace\": " << (cfg.trace ? 1 : 0)
      << ", \"avx2\": " << json_quote(PERFBENCH_AVX2)
      << ", \"build_type\": " << json_quote(PERFBENCH_BUILD_TYPE)
      << ", \"peak_rss_kb\": " << peak_rss_kb
      << ", \"local_rounds\": " << raw.local_rounds
      << ", \"outputs_digest\": \"" << std::hex << raw.outputs_digest
      << std::dec << "\""
      << ", \"drained\": " << (raw.drained ? "true" : "false")
      << ",\n \"setup_s\": [";
  for (std::size_t i = 0; i < raw.setup_s.size(); ++i) {
    if (i != 0) out << ", ";
    append_number(out, raw.setup_s[i]);
  }
  out << "],\n \"errors\": [";
  for (std::size_t i = 0; i < raw.errors.size(); ++i) {
    out << (i != 0 ? ", " : "") << json_quote(raw.errors[i]);
  }
  out << "]";
  const auto write_pairs = [&](const char* key, const auto& pairs) {
    out << ",\n \"" << key << "\": {";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      out << (i != 0 ? ", " : "") << json_quote(pairs[i].first) << ": ";
      append_number(out, pairs[i].second);
    }
    out << "}";
  };
  write_pairs("layers", raw.layers);
  write_pairs("offline_ms", raw.offline_ms);
  out << ",\n \"phases\": [";
  for (std::size_t p = 0; p < raw.phases.size(); ++p) {
    const perfbench::Phase& phase = raw.phases[p];
    out << (p != 0 ? "," : "") << "\n  {\"traced\": "
        << (phase.traced ? "true" : "false") << ", \"wall_s\": ";
    append_number(out, phase.wall_s);
    out << ", \"ops\": [";
    for (std::size_t i = 0; i < phase.ops.size(); ++i) {
      const perfbench::OpRecord& op = phase.ops[i];
      out << (i != 0 ? "," : "") << "\n   {\"kind\": " << json_quote(op.kind)
          << ", \"ms\": ";
      append_number(out, op.ms);
      out << ", \"ok\": " << (op.ok ? "true" : "false")
          << ", \"edges\": " << op.edges << ", \"rounds\": " << op.rounds;
      if (op.rows != 0) {
        out << ", \"rows\": " << op.rows
            << ", \"failed_rows\": " << op.failed_rows;
      }
      if (!op.expect.empty()) {
        out << ", \"expect\": " << json_quote(op.expect)
            << ", \"answer\": " << json_quote(op.answer);
      }
      out << "}";
    }
    out << "]}";
  }
  out << "],\n \"spans\": [";
  for (std::size_t i = 0; i < raw.spans.size(); ++i) {
    const perfbench::Span& s = raw.spans[i];
    out << (i != 0 ? "," : "") << "\n  [" << s.id << ", " << s.parent << ", "
        << s.op << ", " << json_quote(s.name) << ", " << s.t0 << ", " << s.t1
        << "]";
  }
  out << "]}\n";
  return out.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: padlock_perfbench --workload "
               "bulk-2e20|landscape|serve-tcp --seed N --seconds S "
               "--trace 0|1 --out PATH\n");
  return 2;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set) > 0 ? CPU_COUNT(&set) : 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  cfg.threads = available_cpus();
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    const auto num = [&](long long lo, long long hi) {
      return padlock::parse_integer(value, lo, hi);
    };
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      const auto v = num(0, 1LL << 62);
      if (!v) return usage();
      cfg.seed = static_cast<std::uint64_t>(*v);
    } else if (arg == "--seconds") {
      const auto v = num(1, 3600);
      if (!v) return usage();
      cfg.seconds = static_cast<double>(*v);
    } else if (arg == "--trace") {
      const auto v = num(0, 1);
      if (!v) return usage();
      cfg.trace = *v == 1;
    } else if (arg == "--out") {
      out_path = value;
    } else {
      return usage();
    }
  }
  if (out_path.empty()) return usage();
  padlock::exec_context().threads = cfg.threads;

  Raw raw;
  try {
    if (cfg.workload == "bulk-2e20") {
      raw = perfbench::run_bulk(cfg);
    } else if (cfg.workload == "landscape") {
      raw = perfbench::run_landscape(cfg);
    } else if (cfg.workload == "serve-tcp") {
      raw = perfbench::run_serve_tcp(cfg);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "padlock_perfbench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);
  std::ofstream out(out_path);
  out << raw_json(cfg, raw, usage_self.ru_maxrss);
  out.close();
  if (!out) {
    std::fprintf(stderr, "padlock_perfbench: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  return 0;
}
