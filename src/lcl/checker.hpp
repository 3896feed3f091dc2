// Distributed-style verifier for ne-LCLs.
//
// This is the "constant-time distributed algorithm that can check the
// correctness of a solution" from §2: it evaluates C_N at every node and
// C_E at every edge. If the solution is globally correct it accepts
// everywhere; otherwise it rejects at at least one node/edge and reports
// where.
#pragma once

#include <string>
#include <vector>

#include "lcl/ne_lcl.hpp"

namespace padlock {

struct Violation {
  enum class Site { kNode, kEdge } site = Site::kNode;
  NodeId node = kNoNode;  // valid when site == kNode
  EdgeId edge = kNoEdge;  // valid when site == kEdge
};

struct CheckResult {
  bool ok = true;
  std::vector<Violation> violations;  // capped at `max_violations`
  /// Total number of violating sites, including ones dropped from
  /// `violations` by the cap.
  std::size_t total_violations = 0;
  /// True iff `violations` is incomplete (total_violations exceeded the
  /// cap); never silently conflated with a short genuine list.
  bool truncated = false;

  explicit operator bool() const { return ok; }

  /// Records one violating site, honoring the cap.
  void add_violation(Violation v, std::size_t max_violations) {
    ok = false;
    ++total_violations;
    if (violations.size() < max_violations) {
      violations.push_back(v);
    } else {
      truncated = true;
    }
  }
};

/// Evaluates all constraints of `lcl` on (input, output) over g.
///
/// Execution is thread-pooled over the node and edge constraint spaces
/// (support/thread_pool.hpp). The result — including the order and content
/// of the capped violation list and the exact total_violations count — is
/// bit-identical to a serial scan at any thread count.
CheckResult check_ne_lcl(const Graph& g, const NeLcl& lcl,
                         const NeLabeling& input, const NeLabeling& output,
                         std::size_t max_violations = 16);

/// Builds the NodeEnv of node v (exposed for problem-specific tooling).
struct NodeEnvStorage {
  std::vector<Label> edge_in, edge_out, half_in, half_out;
  NodeEnv env;
};
void fill_node_env(const Graph& g, NodeId v, const NeLabeling& input,
                   const NeLabeling& output, NodeEnvStorage& storage);

/// Builds the EdgeEnv of edge e.
EdgeEnv make_edge_env(const Graph& g, EdgeId e, const NeLabeling& input,
                      const NeLabeling& output);

}  // namespace padlock
