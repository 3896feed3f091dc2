// The problem/algorithm registry — the single typed entry point behind
// which every workload of the library plugs in.
//
// The landscape the paper studies is a product: LCL problems × algorithms ×
// round-complexity classes. Before this registry that product was spelled
// out as a dozen bespoke free functions, each with its own result struct
// and its own hand-wired call sites in the CLI, the benches, and the tests.
// Here it becomes data:
//
//  * a ProblemSpec names a problem, knows how to instantiate its ne-LCL
//    (or a custom global checker for problems whose correctness is not
//    node-edge checkable, e.g. distance-2 coloring), and how to build its
//    input labeling;
//  * an AlgoSpec names an algorithm for one problem, carries its
//    determinism, complexity annotation, and graph-class precondition, and
//    wraps the concrete solver behind one `solve` signature;
//  * the AlgorithmRegistry holds both and answers enumeration and lookup
//    queries; `padlock::run` (core/runner.hpp) drives a registered pair end
//    to end, verification included.
//
// Adding a scenario is now a single registration: implement the solver,
// call `register_algo` (and `register_problem` if the problem is new) from
// your module's `register_*_algos` hook — or, for out-of-tree extensions,
// on `AlgorithmRegistry::instance()` before the first run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "lcl/checker.hpp"
#include "lcl/ne_lcl.hpp"
#include "local/round_report.hpp"
#include "local/ids.hpp"

namespace padlock {

/// Thrown on dispatch errors: unknown problem/algorithm names, mismatched
/// (problem, algorithm) pairs, and violated graph-class preconditions.
class RegistryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Algorithm-specific counters carried through the unified result (e.g.
/// Luby iterations, repair radii, palette sizes). Ordered, so reports are
/// stable.
struct Stats {
  std::vector<std::pair<std::string, std::int64_t>> entries;

  void set(std::string name, std::int64_t value);
  [[nodiscard]] std::int64_t get_or(const std::string& name,
                                    std::int64_t fallback) const;
  /// "a=1 b=2 ..." (empty string for no entries).
  [[nodiscard]] std::string str() const;
};

/// Everything a registered solver may read. Ids are unique in
/// {1..id_space}; `seed` feeds randomized algorithms (deterministic ones
/// ignore it); `input` is the problem's input labeling over g. `n_known`
/// is the size bound every node knows; 0 means the graph's own size.
/// Lemma 4's solve (core/pi_prime.hpp) sets it to the padded instance's
/// size when it runs a solver on the smaller virtual graph.
struct RunContext {
  const Graph& graph;
  const IdMap& ids;
  std::uint64_t id_space = 0;
  std::uint64_t seed = 0;
  const NeLabeling& input;
  std::size_t n_known = 0;
};

/// What a registered solver returns: the output labeling in the unified
/// ne-LCL encoding, honest round accounting, and optional counters.
struct AlgoResult {
  NeLabeling output;
  RoundReport rounds;
  Stats stats;
};

/// A problem of the landscape. Exactly one verification path must be set:
/// `make_lcl` for ne-LCL problems (verified by check_ne_lcl), or `check`
/// for problems whose correctness needs a non-constant-radius view (it
/// receives the same (input, output) pair and the violation cap).
struct ProblemSpec {
  std::string name;     // registry key, e.g. "sinkless-orientation"
  std::string family;   // coarse grouping, e.g. "coloring", "independence"
  std::string summary;  // one-liner for listings

  std::function<std::unique_ptr<NeLcl>(const Graph&)> make_lcl;
  std::function<CheckResult(const Graph&, const NeLabeling& input,
                            const NeLabeling& output,
                            std::size_t max_violations)>
      check;

  /// Input labeling generator; null means "no input labels" (empty
  /// labeling).
  std::function<NeLabeling(const Graph&)> make_input;
};

enum class Determinism { kDeterministic, kRandomized };

[[nodiscard]] std::string_view determinism_name(Determinism d);

/// An algorithm solving one registered problem.
struct AlgoSpec {
  std::string name;     // registry key within the problem, e.g. "luby"
  std::string problem;  // name of the ProblemSpec it solves
  Determinism determinism = Determinism::kDeterministic;
  std::string complexity;     // annotation, e.g. "Theta(log* n)"
  std::string requires_text;  // human-readable precondition ("" = any graph)

  /// Graph-class precondition; null accepts every graph.
  std::function<bool(const Graph&)> precondition;

  std::function<AlgoResult(const RunContext&)> solve;
};

/// Throws RegistryError ("graph violates the precondition of
/// <problem>/<algo> (requires …)") when `g` fails `algo.precondition`.
/// Both `run` and Lemma 4's solve_pi_prime (on its virtual graph) refuse
/// through it.
void require_precondition(const AlgoSpec& algo, const Graph& g);

class AlgorithmRegistry {
 public:
  /// The process-wide registry, with all built-in problems and algorithms
  /// registered on first use.
  static AlgorithmRegistry& instance();

  /// An empty registry (tests, sandboxed extension sets).
  AlgorithmRegistry() = default;

  void register_problem(ProblemSpec spec);
  void register_algo(AlgoSpec spec);

  /// Lookup; throws RegistryError with the available names on miss.
  [[nodiscard]] const ProblemSpec& problem(const std::string& name) const;
  [[nodiscard]] const AlgoSpec& algo(const std::string& problem,
                                     const std::string& name) const;

  [[nodiscard]] bool has_problem(const std::string& name) const;

  /// All problems, sorted by name.
  [[nodiscard]] std::vector<const ProblemSpec*> problems() const;

  /// All algorithms of `problem` (all problems if empty), sorted by
  /// (problem, name).
  [[nodiscard]] std::vector<const AlgoSpec*> algos(
      const std::string& problem = "") const;

  /// The full landscape: every registered (problem, algorithm) pair.
  [[nodiscard]] std::vector<std::pair<const ProblemSpec*, const AlgoSpec*>>
  pairs() const;

  [[nodiscard]] std::size_t num_problems() const { return problems_.size(); }
  [[nodiscard]] std::size_t num_algos() const { return algos_.size(); }

 private:
  std::map<std::string, ProblemSpec> problems_;
  std::map<std::pair<std::string, std::string>, AlgoSpec> algos_;
};

// ---- common graph-class preconditions --------------------------------------
// (Algorithm-specific predicates live with their algorithm module — e.g.
// graph_oriented_cycle in algo/cole_vishkin.hpp — keeping core/ agnostic.)

/// No self-loops (proper colorings exist, MIS membership is consistent).
[[nodiscard]] bool graph_loop_free(const Graph& g);

}  // namespace padlock
