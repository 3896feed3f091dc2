// padlock CLI — registry-driven dispatch into the problem/algorithm
// landscape, plus the gadget/padding tooling.
//
// The landscape surface (the redesigned API; see docs/API.md):
//   padlock_cli list     [--problem <name>]
//   padlock_cli run <problem> <algo> --graph <family> [--nodes N]
//                  [--degree D] [--seed S] [--ids <strategy>] [--no-check]
//                  [--threads T] [--repeat R] [--max-violations V]
//       families:   build::family_names() — path cycle tree torus regular
//                   multigraph high-girth bounded (+ cubic, cubic-simple)
//       strategies: sequential shuffled sparse adversarial
//   padlock_cli sweep    [--pairs p/a,p/a|all] [--family f1,f2] [--sizes
//                  a,b,c] [--degree D] [--seed S] [--repeat R] [--threads T]
//                  [--no-check] [--json]
//       the batched execution plan: pairs × families × sizes through the
//       thread pool (core/runner.hpp run_batch). The graph menu resolves
//       through the sweep-wide GraphCache (see docs/API.md).
//       family entries may be file-backed: --family file:<path> loads a
//       .pg store or SNAP/text edge list (docs/API.md "File-backed graphs")
//   padlock_cli graph convert --in <edgelist|.pg> --out <out.pg>
//                  [--keep-self-loops] [--keep-duplicates]
//   padlock_cli graph info    --in <edgelist|.pg>
//       the binary graph store: convert ingests an edge list (or re-encodes
//       a .pg), writes the compact .pg format, and checks its own output
//       (mmap reload + EDGES decode must reproduce the graph, else exit 1);
//       info prints the header, degree stats, and component count of any
//       graph file
//   padlock_cli serve    [--port N|--socket <path>] [--host H] [--threads T]
//                  [--max-in-flight M] [--queue-limit Q]
//                  [--max-connections C] [--max-request-bytes B]
//                  [--max-nodes N]
//       the resident sweep daemon (docs/API.md "Serve"): newline-delimited
//       JSON requests in, streamed per-row JSON out, one process-wide
//       GraphCache and thread pool across all requests. --port 0 picks an
//       ephemeral port (printed on the "listening" banner). Stops on
//       SIGINT/SIGTERM or a {"op": "shutdown"} request, draining in-flight
//       work first.
//
// Every subcommand accepts exactly the options listed above: an unknown
// option ("--n 64" for --nodes, a removed flag) or a stray argument is a
// usage error (exit 2), never a silently ignored knob. Every numeric
// option is parsed strictly (support/parse.hpp): trailing garbage
// ("--nodes 16k"), out-of-range values, and negative counts are usage
// errors too, never silent truncation to 16 or 0.
//
// The gadget/padding tooling (unchanged):
//   padlock_cli gadget   --delta 3 --height 4 [--fault <name>] [--dot]
//   padlock_cli pad      --base-nodes 16 --delta 3 --height 3 [--dot] [--dump]
//   padlock_cli solve    --levels 2 --base-nodes 64 [--rand] [--seed 7]
//       gadget takes --height >= 2, pad --height >= 3, solve --levels 1..3.
//       All three predict the node count before they allocate and refuse
//       (exit 2) anything above kMaxPaddedNodes = 2^23 (core/hierarchy.hpp).
//   padlock_cli verify   < padded-instance.txt
//   padlock_cli export   --kind <family> --nodes N [--seed S] [--dot]
//
// Outputs go to stdout so artifacts can be piped:
//   padlock_cli pad --base-nodes 9 --dump | padlock_cli verify
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/hierarchy.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "gadget/faults.hpp"
#include "gadget/verifier.hpp"
#include "graph/builders.hpp"
#include "graph/metrics.hpp"
#include "io/dot.hpp"
#include "io/serialize.hpp"
#include "serve/server.hpp"
#include "store/edgelist.hpp"
#include "store/pg.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"

#include <csignal>

using namespace padlock;

namespace {

/// A refused option value; main() reports the message and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::map<std::string, std::string> kv;
  bool flag(const std::string& k) const { return kv.count("--" + k) > 0; }
  std::string str(const std::string& k, const std::string& dflt) const {
    const auto it = kv.find("--" + k);
    return it == kv.end() ? dflt : it->second;
  }
  /// Strict whole-token integer in [lo, hi]. "16k", "4x", "", and
  /// out-of-range values (including negatives where lo >= 0) are usage
  /// errors, never a silently truncated or zero value.
  long long num(const std::string& k, long long dflt, long long lo,
                long long hi) const {
    const auto it = kv.find("--" + k);
    if (it == kv.end()) return dflt;
    const std::optional<long long> v = parse_integer(it->second, lo, hi);
    if (!v) {
      throw UsageError("--" + k + " expects an integer in [" +
                       std::to_string(lo) + ", " + std::to_string(hi) +
                       "], got '" + it->second + "'");
    }
    return *v;
  }
};

// Each subcommand's accepted options, without the leading "--".
const std::map<std::string, std::vector<std::string_view>>& option_lists() {
  static const std::map<std::string, std::vector<std::string_view>> lists = {
      {"list", {"problem"}},
      {"run",
       {"graph", "nodes", "degree", "seed", "ids", "no-check", "threads",
        "repeat", "max-violations"}},
      {"sweep",
       {"pairs", "family", "sizes", "degree", "seed", "repeat", "threads",
        "no-check", "json"}},
      {"graph", {"in", "out", "keep-self-loops", "keep-duplicates"}},
      {"serve",
       {"port", "socket", "host", "threads", "max-in-flight", "queue-limit",
        "max-connections", "max-request-bytes", "max-nodes"}},
      {"gadget", {"delta", "height", "fault", "seed", "dot"}},
      {"pad", {"base-nodes", "delta", "height", "seed", "dot", "dump"}},
      {"solve", {"levels", "base-nodes", "rand", "seed"}},
      {"verify", {}},
      {"export", {"kind", "nodes", "seed", "dot"}},
  };
  return lists;
}

// Parses argv[first..] as --key [value] pairs of subcommand `cmd`; anything
// outside option_lists().at(cmd) throws UsageError.
Args parse(int argc, char** argv, int first, const std::string& cmd) {
  const std::vector<std::string_view>& accepted = option_lists().at(cmd);
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw UsageError(cmd + ": unexpected argument '" + key + "'");
    }
    if (std::find(accepted.begin(), accepted.end(),
                  std::string_view(key).substr(2)) == accepted.end()) {
      std::string msg = cmd + ": unknown option '" + key + "'; accepted:";
      for (const std::string_view k : accepted) msg += " --" + std::string(k);
      throw UsageError(msg);
    }
    std::string val = "1";
    // Anything but another --option is the value — including negative
    // numbers, so "--threads -2" reaches num()'s range check and is
    // refused instead of silently meaning "no value given".
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      val = argv[++i];
    }
    a.kv[key] = val;
  }
  return a;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: padlock_cli "
      "<list|run|sweep|serve|graph|gadget|pad|solve|verify|export> "
      "[--options]\n(see header comment of padlock_cli.cpp)\n");
  return 2;
}

// Comma-separated list helper for --sizes / --family / --pairs.
std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string tok;
  for (const char c : csv) {
    if (c == ',') {
      if (!tok.empty()) out.push_back(tok);
      tok.clear();
    } else {
      tok += c;
    }
  }
  if (!tok.empty()) out.push_back(tok);
  return out;
}

int cmd_list(const Args& a) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  const std::string filter = a.str("problem", "");
  Table t({"problem", "algorithm", "mode", "complexity", "requires"});
  for (const auto& [problem, algo] : registry.pairs()) {
    if (!filter.empty() && problem->name != filter) continue;
    t.add_row({problem->name, algo->name,
               std::string(determinism_name(algo->determinism)),
               algo->complexity,
               algo->requires_text.empty() ? "any graph"
                                           : algo->requires_text});
  }
  t.print();
  if (filter.empty()) {
    std::printf("%zu (problem, algorithm) pairs over %zu problems\n",
                registry.num_algos(), registry.num_problems());
  } else {
    std::printf("%zu registered algorithm(s) for '%s'\n", t.rows(),
                filter.c_str());
  }
  return 0;
}

int cmd_run(const std::string& problem, const std::string& algo,
            const Args& a) {
  const auto n = static_cast<std::size_t>(a.num("nodes", 64, 1, 1LL << 26));
  const int degree = static_cast<int>(a.num("degree", 3, 0, 1 << 20));
  const int repeat = static_cast<int>(a.num("repeat", 1, 1, 1000000));
  exec_context().threads = static_cast<int>(a.num("threads", 1, 0, 65536));
  RunOptions opts;
  opts.seed = static_cast<std::uint64_t>(a.num("seed", 1, 0, (1LL << 62)));
  opts.ids = id_strategy_from_name(a.str("ids", "shuffled"));
  opts.check = !a.flag("no-check");
  opts.max_violations = static_cast<std::size_t>(a.num("max-violations", 16, 0, 1 << 20));

  const Graph g =
      build::family(a.str("graph", "cubic-simple"), n, degree, opts.seed);

  // --repeat R: time R identical runs and report min/median wall time.
  using Clock = std::chrono::steady_clock;
  std::vector<std::uint64_t> wall_ns;
  SolveOutcome outcome;
  for (int r = 0; r < std::max(1, repeat); ++r) {
    const auto t0 = Clock::now();
    outcome = run(problem, algo, g, opts);
    wall_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count()));
  }
  const WallStats wall = wall_stats(std::move(wall_ns));

  std::printf("%s/%s on %s (%zu nodes, %zu edges, Delta=%d)\n",
              problem.c_str(), algo.c_str(),
              a.str("graph", "cubic-simple").c_str(), g.num_nodes(),
              g.num_edges(), g.max_degree());
  std::printf("rounds: %d\n", outcome.rounds.rounds);
  if (repeat > 1) {
    std::printf("wall:   min %.1f us, median %.1f us over %d runs "
                "(threads=%d)\n",
                wall.min_ns / 1e3, wall.median_ns / 1e3, repeat,
                resolved_threads());
  }
  const std::string stats = outcome.stats.str();
  if (!stats.empty()) std::printf("stats:  %s\n", stats.c_str());
  if (!opts.check) {
    std::printf("verification: skipped (--no-check)\n");
    return 0;
  }
  if (outcome.verification.ok) {
    std::printf("verification: valid\n");
    return 0;
  }
  std::printf("verification: INVALID (%zu violating sites%s)\n",
              outcome.verification.total_violations,
              outcome.verification.truncated ? ", list truncated" : "");
  for (const Violation& v : outcome.verification.violations) {
    if (v.site == Violation::Site::kNode) {
      std::printf("  node %u\n", v.node);
    } else {
      std::printf("  edge %u\n", v.edge);
    }
  }
  return 1;
}

// The batched execution plan: pairs × families × sizes through run_batch.
int cmd_sweep(const Args& a) {
  ExecutionPlan plan;
  const std::string pairs_arg = a.str("pairs", "all");
  if (pairs_arg != "all") {
    for (const std::string& spec : split_list(pairs_arg)) {
      const auto slash = spec.find('/');
      if (slash == std::string::npos) {
        throw RegistryError("--pairs expects problem/algo entries, got '" +
                            spec + "'");
      }
      plan.pairs.emplace_back(spec.substr(0, slash), spec.substr(slash + 1));
    }
  }
  const int degree = static_cast<int>(a.num("degree", 3, 0, 1 << 20));
  const auto seed = static_cast<std::uint64_t>(a.num("seed", 1, 0, (1LL << 62)));
  for (const std::string& family : split_list(a.str("family", "regular"))) {
    for (const std::string& size : split_list(a.str("sizes", "256,1024"))) {
      const std::optional<long long> n =
          parse_integer(size, 1, 1LL << 26);
      if (!n) {
        throw UsageError("--sizes expects positive integers, got '" + size +
                         "'");
      }
      plan.graphs.push_back(
          {family, static_cast<std::size_t>(*n), degree, seed});
    }
  }
  plan.options.seed = seed;
  plan.options.check = !a.flag("no-check");
  plan.repeat = static_cast<int>(a.num("repeat", 1, 1, 1000000));
  plan.threads = static_cast<int>(a.num("threads", 0, 0, 65536));

  const SweepOutcome outcome = run_batch(plan);
  if (a.flag("json")) {
    std::fputs(to_json(outcome).c_str(), stdout);
    return outcome.all_ok() ? 0 : 1;
  }
  Table t({"problem/algorithm", "family", "n", "rounds", "ok",
           "wall min (us)", "wall med (us)"});
  for (const SweepRow& row : outcome.rows) {
    // Skipped and poisoned rows never ran, so their numeric columns would
    // be noise; every row still prints with its status attributed.
    const bool ran =
        row.status == RowStatus::kOk || row.status == RowStatus::kVerifyFailed;
    t.add_row({row.problem + "/" + row.algo, row.graph.family,
               std::to_string(row.nodes),
               ran ? std::to_string(row.rounds) : "-", status_cell(row),
               ran ? fmt(row.wall_ns_min / 1e3, 1) : "-",
               ran ? fmt(row.wall_ns_median / 1e3, 1) : "-"});
  }
  t.print();
  std::printf("%zu rows in %.1f ms (threads=%d, %s)%s\n",
              outcome.rows.size(), outcome.wall_ns / 1e6, outcome.threads,
              cache_note(outcome).c_str(),
              outcome.all_ok() ? "" : " — FAILURES");
  return outcome.all_ok() ? 0 : 1;
}

// The binary-store surface: `graph convert` ingests an edge list (or
// re-encodes an existing .pg) into the compact format and verifies what it
// wrote; `graph info` prints header metadata and degree/structure stats for
// either kind of file.
int cmd_graph(const std::string& verb, const Args& a) {
  const std::string in = a.str("in", "");
  if (in.empty()) {
    std::fprintf(stderr,
                 "usage: padlock_cli graph <convert|info> --in <path> "
                 "[--out <path.pg>] [--keep-self-loops] "
                 "[--keep-duplicates]\n");
    return 2;
  }
  if (verb == "convert") {
    const std::string out = a.str("out", "");
    if (out.empty()) {
      std::fprintf(stderr, "padlock_cli graph convert: --out is required\n");
      return 2;
    }
    Graph g;
    if (store::sniff_pg(in)) {
      g = store::load_pg(in);
    } else {
      store::EdgeListOptions opts;
      opts.keep_self_loops = a.flag("keep-self-loops");
      opts.keep_duplicates = a.flag("keep-duplicates");
      const store::EdgeList el = store::read_edgelist_file(in, opts);
      std::printf("ingested %zu edge records (%zu duplicates dropped, "
                  "%zu self-loops dropped, %zu distinct ids remapped)\n",
                  el.stats.edge_lines, el.stats.duplicates_dropped,
                  el.stats.self_loops_dropped, el.num_nodes);
      g = store::to_graph(el);
    }
    store::write_pg(out, g);
    const store::PgInfo info = store::read_pg_info(out);
    std::printf("wrote %s: %zu nodes, %zu edges, %llu bytes "
                "(EDGES %llu, CSR %llu), checksum %016llx\n",
                out.c_str(), g.num_nodes(), g.num_edges(),
                static_cast<unsigned long long>(info.file_bytes),
                static_cast<unsigned long long>(info.edges_bytes),
                static_cast<unsigned long long>(info.csr_bytes),
                static_cast<unsigned long long>(info.checksum));

    // Self-check: reload through the mmap path and cross-validate the
    // compressed EDGES section against the zero-copy CSR view.
    const Graph back = store::load_pg(out);
    const auto edges = store::decode_pg_edges(out);
    bool identical = back.num_nodes() == g.num_nodes() &&
                     back.num_edges() == g.num_edges() &&
                     edges.size() == g.num_edges();
    for (EdgeId e = 0; identical && e < g.num_edges(); ++e) {
      identical =
          back.endpoints(e) == g.endpoints(e) && edges[e] == g.endpoints(e);
    }
    if (!identical) {
      std::fprintf(stderr, "padlock_cli graph convert: SELF-CHECK FAILED: "
                           "reload of %s does not reproduce the graph\n",
                   out.c_str());
      return 1;
    }
    std::printf("verified: mmap reload and EDGES decode reproduce the "
                "graph exactly\n");
    return 0;
  }
  if (verb == "info") {
    const bool is_pg = store::sniff_pg(in);
    if (is_pg) {
      const store::PgInfo info = store::read_pg_info(in);
      std::printf("%s: .pg store v%u, %llu bytes (EDGES %llu, CSR %llu), "
                  "checksum %016llx\n",
                  in.c_str(), info.version,
                  static_cast<unsigned long long>(info.file_bytes),
                  static_cast<unsigned long long>(info.edges_bytes),
                  static_cast<unsigned long long>(info.csr_bytes),
                  static_cast<unsigned long long>(info.checksum));
    } else {
      std::printf("%s: text edge list (fingerprint %016llx)\n", in.c_str(),
                  static_cast<unsigned long long>(
                      store::file_fingerprint(in)));
    }
    const Graph g = store::load_graph_file(in);
    std::size_t degree_sum = 0;
    int min_deg = g.num_nodes() == 0 ? 0 : g.degree(0);
    std::size_t isolated = 0, self_loops = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const int d = g.degree(v);
      degree_sum += static_cast<std::size_t>(d);
      min_deg = std::min(min_deg, d);
      if (d == 0) ++isolated;
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      if (g.is_self_loop(e)) ++self_loops;
    const Components comps = connected_components(g);
    std::printf("nodes %zu, edges %zu, self-loops %zu\n", g.num_nodes(),
                g.num_edges(), self_loops);
    std::printf("degree min %d, max %d, avg %.2f; %zu isolated\n", min_deg,
                g.max_degree(),
                g.num_nodes() == 0 ? 0.0
                                   : static_cast<double>(degree_sum) /
                                         static_cast<double>(g.num_nodes()),
                isolated);
    std::printf("components %d\n", comps.count);
    return 0;
  }
  std::fprintf(stderr, "padlock_cli graph: unknown verb '%s' "
                       "(expected convert or info)\n",
               verb.c_str());
  return 2;
}

GadgetFault fault_by_name(const std::string& name) {
  for (const GadgetFault f : all_gadget_faults()) {
    if (fault_name(f) == name) return f;
  }
  std::fprintf(stderr, "unknown fault '%s'; available:", name.c_str());
  for (const GadgetFault f : all_gadget_faults()) {
    std::fprintf(stderr, " %s", fault_name(f).c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// Refuses (UsageError, exit 2) a build predicted above kMaxPaddedNodes,
// before anything is allocated.
void admit(const std::string& cmd, std::size_t predicted_nodes) {
  if (predicted_nodes <= kMaxPaddedNodes) return;
  const bool saturated =
      predicted_nodes == std::numeric_limits<std::size_t>::max();
  throw UsageError(cmd + ": predicted " + (saturated ? "at least " : "") +
                   std::to_string(predicted_nodes) +
                   " nodes, above the admission bound kMaxPaddedNodes = " +
                   std::to_string(kMaxPaddedNodes) + " (2^23)");
}

int cmd_gadget(const Args& a) {
  const int delta = static_cast<int>(a.num("delta", 3, 1, 64));
  const int height = static_cast<int>(a.num("height", 4, 2, 64));
  admit("gadget", gadget_size(delta, height));
  GadgetInstance inst = build_gadget(delta, height);
  if (a.flag("fault")) {
    inst = inject_fault(inst, fault_by_name(a.str("fault", "")),
                        static_cast<std::uint64_t>(a.num("seed", 1, 0, (1LL << 62))));
  }
  if (a.flag("dot")) {
    io::write_gadget_dot(std::cout, inst);
    return 0;
  }
  const auto res = run_gadget_verifier(inst.graph, inst.labels);
  std::printf("gadget: delta=%d height=%d nodes=%zu\n", delta, height,
              inst.graph.num_nodes());
  std::printf("verifier: %s in %d rounds\n",
              res.found_error ? "proof of error" : "all GadOk",
              res.report.rounds);
  return 0;
}

int cmd_pad(const Args& a) {
  std::size_t base_nodes = static_cast<std::size_t>(a.num("base-nodes", 16, 1, 1LL << 26));
  const int delta = static_cast<int>(a.num("delta", 3, 1, 64));
  const int height = static_cast<int>(a.num("height", 3, 3, 64));
  const auto seed = static_cast<std::uint64_t>(a.num("seed", 7, 0, (1LL << 62)));
  // The configuration model needs an even degree sum.
  if ((base_nodes * static_cast<std::size_t>(delta)) % 2 != 0) ++base_nodes;
  admit("pad", padded_size(base_nodes, delta, height));
  const Graph base = build::random_regular(base_nodes, delta, seed);
  const NeLabeling base_input(base);
  const PaddedBuild pb = build_padded_instance(base, base_input, delta, height);
  if (a.flag("dot")) {
    io::write_padded_dot(std::cout, pb.instance);
    return 0;
  }
  if (a.flag("dump")) {
    io::write_padded_instance(std::cout, pb.instance);
    return 0;
  }
  std::printf("padded: base %zu nodes -> %zu nodes, %zu edges\n",
              base.num_nodes(), pb.instance.graph.num_nodes(),
              pb.instance.graph.num_edges());
  return 0;
}

int cmd_solve(const Args& a) {
  // A Π_4 label does not fit encode_padded_node's deeper-layer bits.
  const int levels = static_cast<int>(a.num("levels", 2, 1, 3));
  const std::size_t base_nodes =
      static_cast<std::size_t>(a.num("base-nodes", 64, 1, 1LL << 26));
  const auto seed = static_cast<std::uint64_t>(a.num("seed", 7, 0, (1LL << 62)));
  const bool randomized = a.flag("rand");
  admit("solve", plan_hierarchy(levels, base_nodes).max_nodes);
  const Hierarchy h = build_hierarchy(levels, base_nodes, seed);
  const auto res = solve_hierarchy(
      h,
      AlgorithmRegistry::instance().algo(
          "sinkless-orientation",
          randomized ? "propose-repair" : "short-cycle-det"),
      seed);
  std::printf(
      "Pi_%d on %zu nodes (%s leaf): %d rounds "
      "(leaf %d, sinkless output %s)\n",
      levels, h.total_nodes(), randomized ? "randomized" : "deterministic",
      res.rounds, res.leaf_rounds,
      res.leaf_output_sinkless ? "valid" : "INVALID");
  return res.leaf_output_sinkless ? 0 : 1;
}

int cmd_verify(const Args&) {
  try {
    const PaddedInstance inst = io::read_padded_instance(std::cin);
    // Lemma 4 step 1: the verifier runs on the GadEdge subgraph only.
    const GadgetSubgraph gs = gadget_subgraph(inst);
    const auto res = run_gadget_verifier(gs.graph, gs.labels);
    std::printf("instance: %zu nodes, %zu edges; verifier: %s (%d rounds)\n",
                inst.graph.num_nodes(), inst.graph.num_edges(),
                res.found_error ? "errors found" : "all gadgets valid",
                res.report.rounds);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
}

int cmd_export(const Args& a) {
  const std::string kind = a.str("kind", "cycle");
  const std::size_t n = static_cast<std::size_t>(a.num("nodes", 32, 1, 1LL << 26));
  const auto seed = static_cast<std::uint64_t>(a.num("seed", 1, 0, (1LL << 62)));
  const Graph g = build::family(kind, n, 3, seed);
  if (a.flag("dot")) {
    io::write_dot(std::cout, g);
  } else {
    io::write_graph(std::cout, g);
  }
  return 0;
}

// SIGINT/SIGTERM only set a flag; the serve loop below polls it between
// wait_for_shutdown() timeouts and runs the graceful drain itself.
volatile std::sig_atomic_t g_serve_stop = 0;
void serve_signal(int) { g_serve_stop = 1; }

// The resident sweep daemon (src/serve/, docs/API.md "Serve").
int cmd_serve(const Args& a) {
  serve::ServerOptions opts;
  opts.host = a.str("host", "127.0.0.1");
  opts.port = static_cast<int>(a.num("port", 0, 0, 65535));
  opts.unix_path = a.str("socket", "");
  opts.max_in_flight = static_cast<int>(a.num("max-in-flight", 2, 1, 256));
  opts.queue_limit = static_cast<int>(a.num("queue-limit", 8, 0, 4096));
  opts.max_connections =
      static_cast<int>(a.num("max-connections", 64, 1, 4096));
  opts.max_request_bytes = static_cast<std::size_t>(
      a.num("max-request-bytes", 1LL << 20, 64, 1LL << 28));
  opts.limits.max_nodes = static_cast<std::size_t>(
      a.num("max-nodes", 1LL << 22, 1, 1LL << 26));
  // The one process-wide worker pool every request shares; requests
  // themselves cannot resize it (plan.threads stays 0 by protocol
  // contract).
  exec_context().threads = static_cast<int>(a.num("threads", 0, 0, 65536));

  serve::Server server(opts);
  server.start();
  if (!opts.unix_path.empty()) {
    std::printf("serve: listening on unix:%s\n", opts.unix_path.c_str());
  } else {
    std::printf("serve: listening on %s:%d\n", opts.host.c_str(),
                server.port());
  }
  std::printf("serve: threads=%d max-in-flight=%d queue-limit=%d "
              "max-request-bytes=%zu\n",
              resolved_threads(), opts.max_in_flight, opts.queue_limit,
              opts.max_request_bytes);
  std::fflush(stdout);

  std::signal(SIGINT, serve_signal);
  std::signal(SIGTERM, serve_signal);
  while (g_serve_stop == 0 && !server.wait_for_shutdown(200)) {
  }
  server.stop();

  const serve::ServeStats s = server.stats();
  std::printf("serve: drained; %llu connections, %llu requests "
              "(%llu completed, %llu rejected, %llu bad, %llu oversized), "
              "%llu rows streamed\n",
              static_cast<unsigned long long>(s.connections),
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.bad_requests),
              static_cast<unsigned long long>(s.oversized),
              static_cast<unsigned long long>(s.rows_streamed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (option_lists().count(cmd) == 0) return usage();
  try {
    if (cmd == "list") return cmd_list(parse(argc, argv, 2, cmd));
    if (cmd == "run") {
      if (argc < 4 || argv[2][0] == '-' || argv[3][0] == '-') {
        std::fprintf(stderr,
                     "usage: padlock_cli run <problem> <algo> [--options]\n"
                     "(padlock_cli list shows the registered pairs)\n");
        return 2;
      }
      return cmd_run(argv[2], argv[3], parse(argc, argv, 4, cmd));
    }
    if (cmd == "graph") {
      if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr,
                     "usage: padlock_cli graph <convert|info> --in <path> "
                     "[--out <path.pg>]\n");
        return 2;
      }
      return cmd_graph(argv[2], parse(argc, argv, 3, cmd));
    }
    const Args a = parse(argc, argv, 2, cmd);
    if (cmd == "sweep") return cmd_sweep(a);
    if (cmd == "serve") return cmd_serve(a);
    if (cmd == "gadget") return cmd_gadget(a);
    if (cmd == "pad") return cmd_pad(a);
    if (cmd == "solve") return cmd_solve(a);
    if (cmd == "verify") return cmd_verify(a);
    if (cmd == "export") return cmd_export(a);
  } catch (const std::exception& e) {
    // RegistryError from dispatch, std::invalid_argument from build::family.
    std::fprintf(stderr, "padlock_cli: %s\n", e.what());
    return 2;
  }
  return usage();
}
