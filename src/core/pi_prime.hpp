// The padded problem Π' (§3.3): outputs, constraints and the solver of
// Lemma 4, for a generic inner ne-LCL Π.
//
// Output structure per padded node (the paper's Σ_list × {PortErr…} × Σ^G):
//
//   * the Ψ_G part — gadget validity proof (PsiNeOutput; PortEdges carry ε);
//   * a port status in {NoPortErr, PortErr1, PortErr2};
//   * the Σ_list part: the set S of valid ports, copies ι of the inner
//     inputs at the ports (ι^V from Port_1, ι^E_i / ι^B_i from the port
//     edges), and the virtual node's inner outputs o (o^V plus per-port
//     o^E_i / o^B_i).
//
// The constraints implemented by check_pi_prime are §3.3's 1–6 verbatim,
// with one clarification: the Σ_list cross-checks on a PortEdge apply when
// both endpoints are valid ports (NoPortErr); entries of invalid ports are
// free, matching the upper-bound proof's "can be freely chosen".
#pragma once

#include <functional>
#include <vector>

#include "core/padded_graph.hpp"
#include "core/registry.hpp"
#include "gadget/ne_refinement.hpp"
#include "lcl/checker.hpp"
#include "local/engine.hpp"
#include "local/ids.hpp"

namespace padlock {

enum PortStatus : int {
  kNoPortErr = 0,
  kPortErr1 = 1,
  kPortErr2 = 2,
};

/// The Σ_list component of a node's output. Arrays are indexed by port
/// number - 1 (size Δ); entries of ports outside S are unconstrained.
struct SigmaList {
  std::uint32_t ports = 0;  // S as a bitmask (bit i-1 = Port_i ∈ S)
  Label iota_v = kEmptyLabel;
  std::vector<Label> iota_e, iota_b;
  Label o_v = kEmptyLabel;
  std::vector<Label> o_e, o_b;

  explicit SigmaList(int delta = 0)
      : iota_e(static_cast<std::size_t>(delta), kEmptyLabel),
        iota_b(static_cast<std::size_t>(delta), kEmptyLabel),
        o_e(static_cast<std::size_t>(delta), kEmptyLabel),
        o_b(static_cast<std::size_t>(delta), kEmptyLabel) {}

  [[nodiscard]] bool has_port(int i) const {
    return (ports >> (i - 1)) & 1u;
  }
  friend bool operator==(const SigmaList&, const SigmaList&) = default;
};

struct PiPrimeOutput {
  PsiNeOutput psi;
  NodeMap<int> port_status;
  NodeMap<SigmaList> list;

  PiPrimeOutput() = default;
  PiPrimeOutput(const Graph& g, int delta)
      : psi(g), port_status(g, kNoPortErr), list(g, SigmaList(delta)) {}
};

struct PiPrimeCheckResult {
  bool ok = true;
  std::vector<std::pair<NodeId, std::string>> violations;
};

/// Evaluates the Π' constraints (§3.3, 1–6) of instance `inst` with inner
/// problem `pi`.
PiPrimeCheckResult check_pi_prime(const PaddedInstance& inst, const NeLcl& pi,
                                  const PiPrimeOutput& out,
                                  std::size_t max_violations = 16);

/// Diagnostics + round accounting of one Π' solve (Lemma 4).
struct PiPrimeSolveResult {
  PiPrimeOutput output;
  RoundReport report;
  int verifier_rounds = 0;   // O(d(n)) part
  int inner_rounds = 0;      // T(Π, n) on the virtual graph
  int stretch = 0;           // max valid-gadget diameter + 1
  std::size_t virtual_nodes = 0;
  std::size_t virtual_edges = 0;
};

/// Lemma 4's algorithm: run the gadget verifier, mark ports, contract valid
/// gadgets into the virtual multigraph, run `solve_pi` on it, and write all
/// outputs back. `solve_pi` is a registered solver (AlgoSpec::solve); its
/// RunContext is the virtual graph with the smallest-contained-id virtual
/// ids, the copied inputs, `seed`, and id_space = n_known (virtual ids are
/// padded ids). Round accounting: per padded node, the verifier radius plus
/// (inside valid gadgets) the simulation gather radius
/// T(Π) * stretch + stretch.
PiPrimeSolveResult solve_pi_prime(
    const PaddedInstance& inst,
    const std::function<AlgoResult(const RunContext&)>& solve_pi,
    const IdMap& ids, std::size_t n_known, std::uint64_t seed = 1);

}  // namespace padlock
