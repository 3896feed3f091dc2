#include "core/registry.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace padlock {

// Defined in core/builtin.cpp; registers every in-tree problem and
// algorithm. Called lazily from instance() so registration survives any
// link layout (static initializers in a static library would not).
void register_builtin(AlgorithmRegistry& registry);

void Stats::set(std::string name, std::int64_t value) {
  for (auto& [k, v] : entries) {
    if (k == name) {
      v = value;
      return;
    }
  }
  entries.emplace_back(std::move(name), value);
}

std::int64_t Stats::get_or(const std::string& name,
                           std::int64_t fallback) const {
  for (const auto& [k, v] : entries) {
    if (k == name) return v;
  }
  return fallback;
}

std::string Stats::str() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [k, v] : entries) {
    if (!first) out << ' ';
    out << k << '=' << v;
    first = false;
  }
  return out.str();
}

std::string_view determinism_name(Determinism d) {
  return d == Determinism::kDeterministic ? "det" : "rand";
}

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();
    register_builtin(*r);
    return r;
  }();
  return *registry;
}

void AlgorithmRegistry::register_problem(ProblemSpec spec) {
  PADLOCK_REQUIRE(!spec.name.empty());
  PADLOCK_REQUIRE(spec.make_lcl != nullptr || spec.check != nullptr);
  const auto [it, inserted] = problems_.emplace(spec.name, std::move(spec));
  (void)it;
  PADLOCK_REQUIRE(inserted);  // duplicate problem registration
}

void AlgorithmRegistry::register_algo(AlgoSpec spec) {
  PADLOCK_REQUIRE(!spec.name.empty());
  PADLOCK_REQUIRE(spec.solve != nullptr);
  PADLOCK_REQUIRE(problems_.count(spec.problem) == 1);
  const auto [it, inserted] =
      algos_.emplace(std::make_pair(spec.problem, spec.name), std::move(spec));
  (void)it;
  PADLOCK_REQUIRE(inserted);  // duplicate algorithm registration
}

const ProblemSpec& AlgorithmRegistry::problem(const std::string& name) const {
  const auto it = problems_.find(name);
  if (it == problems_.end()) {
    std::ostringstream msg;
    msg << "unknown problem '" << name << "'; registered problems:";
    for (const auto& [key, spec] : problems_) msg << ' ' << key;
    throw RegistryError(msg.str());
  }
  return it->second;
}

const AlgoSpec& AlgorithmRegistry::algo(const std::string& problem,
                                        const std::string& name) const {
  const auto it = algos_.find(std::make_pair(problem, name));
  if (it == algos_.end()) {
    std::ostringstream msg;
    msg << "unknown algorithm '" << name << "' for problem '" << problem
        << "'; registered:";
    for (const auto& [key, spec] : algos_) {
      if (key.first == problem) msg << ' ' << key.second;
    }
    if (problems_.count(problem) == 0) msg << " (problem itself is unknown)";
    throw RegistryError(msg.str());
  }
  return it->second;
}

bool AlgorithmRegistry::has_problem(const std::string& name) const {
  return problems_.count(name) == 1;
}

std::vector<const ProblemSpec*> AlgorithmRegistry::problems() const {
  std::vector<const ProblemSpec*> out;
  out.reserve(problems_.size());
  for (const auto& [key, spec] : problems_) out.push_back(&spec);
  return out;  // std::map iteration is already name-sorted
}

std::vector<const AlgoSpec*> AlgorithmRegistry::algos(
    const std::string& problem) const {
  std::vector<const AlgoSpec*> out;
  for (const auto& [key, spec] : algos_) {
    if (problem.empty() || key.first == problem) out.push_back(&spec);
  }
  return out;
}

std::vector<std::pair<const ProblemSpec*, const AlgoSpec*>>
AlgorithmRegistry::pairs() const {
  std::vector<std::pair<const ProblemSpec*, const AlgoSpec*>> out;
  out.reserve(algos_.size());
  for (const auto& [key, spec] : algos_) {
    out.emplace_back(&problems_.at(key.first), &spec);
  }
  return out;
}

bool graph_loop_free(const Graph& g) { return g.loop_free(); }

}  // namespace padlock
