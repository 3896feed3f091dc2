// Ψ/Π' reference map: verifier and Π' solve outputs -> fingerprints.
//
// The four gadget verifiers (tree and path family, plain Ψ and Ψ_G form)
// and the Lemma 4 solver must stay bit-identical through refactors of
// their decision core and round accounting. Each verifier row digests the
// whole result: outputs, witnesses, masks, claims, half marks, found_error
// and per-node rounds. Inputs are valid gadgets, every GadgetFault at a
// few seeds, seeded half-label relabelings (sparse ones keep most of the
// structure, so pointer chains are long; dense ones make label cycles and
// ambiguous steps), randomly labeled cubic graphs (cycles of all lengths,
// where the round report's tie-breaks show), and disjoint unions of
// these, so components of all kinds share one graph. Every verifier runs on every input; an input a
// verifier refuses (ContractViolation) records "refused". Two bulk rows
// fold 300 further sparse relabelings per family into one digest each.
//
// Π' rows digest solve_hierarchy at Π_2 and Π_3 for both families and
// both leaves at threads 1 and 4, plus solve_pi_prime on padded instances with a few
// corrupted gadgets (invalid components next to valid ones).
//
// The committed map tests/data/psi_reference_map.json was captured before
// the two families were given one shared Ψ core; rerun with
// PADLOCK_REGEN_GOLDEN=1 to rewrite it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/hierarchy.hpp"
#include "core/padded_graph.hpp"
#include "core/pi_prime.hpp"
#include "gadget/faults.hpp"
#include "gadget/path_psi.hpp"
#include "graph/builders.hpp"
#include "lcl/problems/sinkless_orientation.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "golden.hpp"

namespace padlock {
namespace {

/// FNV-1a over a stream of integers.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void add(std::int64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(x >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  template <class Range>
  void add_all(const Range& r) {
    for (const auto& x : r) add(static_cast<std::int64_t>(x));
  }
  [[nodiscard]] std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

void add_report(Digest& d, const RoundReport& r) {
  d.add(r.rounds);
  d.add_all(r.node_rounds);
}

void add_ne_output(Digest& d, const PsiNeOutput& o) {
  d.add_all(o.kind);
  d.add_all(o.witness);
  d.add_all(o.mask);
  for (const auto& c : o.claims) d.add_all(c);
  d.add_all(o.mark);
}

std::string verifier_print(const VerifierResult& r) {
  Digest d;
  d.add_all(r.output);
  d.add(r.found_error);
  add_report(d, r.report);
  return d.hex();
}

std::string ne_verifier_print(const NeVerifierResult& r) {
  Digest d;
  add_ne_output(d, r.output);
  d.add(r.found_error);
  add_report(d, r.report);
  return d.hex();
}

void add_pi_prime(Digest& d, const PiPrimeSolveResult& r) {
  add_ne_output(d, r.output.psi);
  d.add_all(r.output.port_status);
  for (const SigmaList& l : r.output.list) {
    d.add(l.ports);
    d.add(l.iota_v);
    d.add_all(l.iota_e);
    d.add_all(l.iota_b);
    d.add(l.o_v);
    d.add_all(l.o_e);
    d.add_all(l.o_b);
  }
  add_report(d, r.report);
  d.add(r.verifier_rounds);
  d.add(r.inner_rounds);
  d.add(r.stretch);
  d.add(static_cast<std::int64_t>(r.virtual_nodes));
  d.add(static_cast<std::int64_t>(r.virtual_edges));
}

std::string pi_prime_print(const PiPrimeSolveResult& r) {
  Digest d;
  add_pi_prime(d, r);
  return d.hex();
}

std::string hierarchy_print(const HierarchySolveResult& r) {
  Digest d;
  d.add(r.rounds);
  d.add(r.leaf_rounds);
  d.add_all(r.stretch_per_level);
  d.add(r.leaf_output_sinkless);
  add_pi_prime(d, r.top);
  return d.hex();
}

std::string refused_or(const std::function<std::string()>& f) {
  try {
    return f();
  } catch (const ContractViolation&) {
    return "refused";
  }
}

// ---- verifier inputs ---------------------------------------------------------

/// Copies `parts` side by side into one graph; node and edge ids of part k
/// follow those of parts 0..k-1.
GadgetInstance disjoint_union(const std::vector<GadgetInstance>& parts) {
  std::size_t n = 0;
  for (const auto& p : parts) n += p.graph.num_nodes();
  GraphBuilder b;
  b.add_nodes(n);
  NodeId offset = 0;
  for (const auto& p : parts) {
    for (EdgeId e = 0; e < p.graph.num_edges(); ++e)
      b.add_edge(offset + p.graph.endpoint(e, 0),
                 offset + p.graph.endpoint(e, 1));
    offset += static_cast<NodeId>(p.graph.num_nodes());
  }
  GadgetInstance out;
  out.graph = std::move(b).build();
  out.labels = GadgetLabels(out.graph);
  out.labels.delta = parts.front().labels.delta;
  NodeId v0 = 0;
  EdgeId e0 = 0;
  for (const auto& p : parts) {
    PADLOCK_REQUIRE(p.labels.delta == out.labels.delta);
    for (NodeId v = 0; v < p.graph.num_nodes(); ++v) {
      out.labels.index[v0 + v] = p.labels.index[v];
      out.labels.port[v0 + v] = p.labels.port[v];
      out.labels.center[v0 + v] = p.labels.center[v];
      out.labels.vcolor[v0 + v] = p.labels.vcolor[v];
    }
    for (EdgeId e = 0; e < p.graph.num_edges(); ++e)
      for (int side = 0; side < 2; ++side)
        out.labels.half[HalfEdge{e0 + e, side}] =
            p.labels.half[HalfEdge{e, side}];
    v0 += static_cast<NodeId>(p.graph.num_nodes());
    e0 += static_cast<EdgeId>(p.graph.num_edges());
  }
  return out;
}

/// A uniform draw from None, the five tree labels, Up and Down_1..Down_Δ.
int random_half_label(Rng& rng, int delta) {
  const auto k = static_cast<int>(rng.below(7 + static_cast<unsigned>(delta)));
  return k < 7 ? k : down_label(k - 6);
}

/// Redraws half labels of `base`: `count` random halves, or (count == 0)
/// each half with probability 1/2.
GadgetInstance relabeled(const GadgetInstance& base, std::uint64_t seed,
                         int count) {
  GadgetInstance out = base;
  Rng rng(seed);
  const int delta = base.labels.delta;
  auto draw = [&] { return random_half_label(rng, delta); };
  const std::size_t halves = 2 * base.graph.num_edges();
  if (count == 0) {
    for (std::size_t i = 0; i < halves; ++i)
      if (rng.chance(0.5))
        out.labels.half[HalfEdge{static_cast<EdgeId>(i / 2),
                                 static_cast<int>(i % 2)}] = draw();
  } else {
    for (int c = 0; c < count; ++c) {
      const auto i = rng.below(halves);
      out.labels.half[HalfEdge{static_cast<EdgeId>(i / 2),
                               static_cast<int>(i % 2)}] = draw();
    }
  }
  return out;
}

/// Random half labels on a graph that is no gadget at all: cycles of all
/// lengths, so the round report's tie-breaks are visible.
GadgetInstance labeled_graph(Graph g, std::uint64_t seed) {
  GadgetInstance out;
  out.labels = GadgetLabels(g);
  out.labels.delta = 3;
  out.graph = std::move(g);
  return relabeled(out, seed, 0);
}

struct VerifierCase {
  std::string name;
  GadgetInstance inst;
};

std::vector<VerifierCase> verifier_cases() {
  std::vector<VerifierCase> out;
  const GadgetInstance tree = build_gadget(3, 4);
  const GadgetInstance path = build_path_gadget(3, 6);
  out.push_back({"tree/valid/d3h4", tree});
  out.push_back({"tree/valid/d2h6", build_gadget(2, 6)});
  out.push_back({"path/valid/d3l6", path});
  out.push_back({"path/valid/d2l9", build_path_gadget(2, 9)});
  for (const GadgetFault f : all_gadget_faults())
    for (const std::uint64_t seed : {1ull, 2ull, 3ull})
      out.push_back({"tree/fault/" + fault_name(f) + "/s" +
                         std::to_string(seed),
                     inject_fault(tree, f, seed)});
  for (const auto& [fam, base] :
       {std::pair{"tree", &tree}, std::pair{"path", &path}}) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed)
      out.push_back({std::string(fam) + "/sparse/s" + std::to_string(seed),
                     relabeled(*base, seed, 1 + static_cast<int>(seed % 3))});
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
      out.push_back({std::string(fam) + "/dense/s" + std::to_string(seed),
                     relabeled(*base, 1000 + seed, 0)});
  }
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    out.push_back({"cubic/dense/s" + std::to_string(seed),
                   labeled_graph(build::random_regular_simple(40, 3, seed),
                                 4000 + seed)});
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const GadgetFault f =
        all_gadget_faults()[seed % all_gadget_faults().size()];
    out.push_back({"union/s" + std::to_string(seed),
                   disjoint_union({tree, relabeled(path, 2000 + seed, 2),
                                   inject_fault(tree, f, seed), path,
                                   relabeled(tree, 3000 + seed, 1),
                                   labeled_graph(build::random_regular_simple(
                                                     24, 3, seed),
                                                 5000 + seed)})});
  }
  return out;
}

std::string verifier_line(const VerifierCase& c) {
  const Graph& g = c.inst.graph;
  const GadgetLabels& l = c.inst.labels;
  std::ostringstream line;
  line << "{\"case\": \"" << c.name << "\", \"tree\": \""
       << refused_or([&] { return verifier_print(run_gadget_verifier(g, l)); })
       << "\", \"tree_ne\": \""
       << refused_or(
              [&] { return ne_verifier_print(run_gadget_verifier_ne(g, l)); })
       << "\", \"path\": \""
       << refused_or([&] { return verifier_print(run_path_verifier(g, l)); })
       << "\", \"path_ne\": \""
       << refused_or(
              [&] { return ne_verifier_print(run_path_verifier_ne(g, l)); })
       << "\"}";
  return line.str();
}

/// One row for many sparse relabelings of `base`: the digest of their rows.
std::string bulk_line(const std::string& name, const GadgetInstance& base,
                      std::uint64_t first_seed, std::uint64_t last_seed) {
  Digest d;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed)
    for (const char ch : verifier_line(
             {name, relabeled(base, seed, 1 + static_cast<int>(seed % 3))}))
      d.add(ch);
  return "{\"case\": \"" + name + "\", \"fingerprint\": \"" + d.hex() +
         "\"}";
}

// ---- Π' solves -------------------------------------------------------------

const AlgoSpec& sinkless_leaf(bool randomized) {
  return AlgorithmRegistry::instance().algo(
      "sinkless-orientation",
      randomized ? "propose-repair" : "short-cycle-det");
}

/// Redraws `count` GadEdge half labels of a padded instance.
PaddedInstance corrupted(PaddedInstance inst, std::uint64_t seed, int count) {
  Rng rng(seed);
  for (int c = 0; c < count;) {
    const auto i = rng.below(2 * inst.graph.num_edges());
    const HalfEdge h{static_cast<EdgeId>(i / 2), static_cast<int>(i % 2)};
    if (inst.port_edge[h.edge]) continue;
    inst.gadget.half[h] = random_half_label(rng, inst.gadget.delta);
    ++c;
  }
  return inst;
}

struct SolveCase {
  std::string name;
  std::function<std::string()> print;
};

std::vector<SolveCase> solve_cases() {
  std::vector<SolveCase> out;
  for (const bool path_family : {false, true}) {
    const std::string fam = path_family ? "path" : "tree";
    for (const auto& [levels, base_nodes] :
         {std::pair{2, std::size_t{32}}, std::pair{2, std::size_t{64}},
          std::pair{3, std::size_t{8}}})
      for (const bool randomized : {false, true})
        for (const int threads : {1, 4})
          out.push_back(
              {"pi" + std::to_string(levels) + "/" + fam + "/b" +
                   std::to_string(base_nodes) +
                   (randomized ? "/rand" : "/det") + "/t" +
                   std::to_string(threads),
               [=] {
                 exec_context().threads = threads;
                 const Hierarchy h =
                     path_family ? build_path_hierarchy(levels, base_nodes, 1)
                                 : build_hierarchy(levels, base_nodes, 1);
                 return hierarchy_print(
                     solve_hierarchy(h, sinkless_leaf(randomized), 7));
               }});
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      out.push_back(
          {"pi-prime/" + fam + "/corrupt/s" + std::to_string(seed), [=] {
             exec_context().threads = 1;
             const Graph base = build::random_regular_simple(16, 3, seed);
             const PaddedBuild pb =
                 path_family
                     ? build_padded_instance_path(base, NeLabeling(base), 3, 5)
                     : build_padded_instance(base, NeLabeling(base), 3, 4);
             const PaddedInstance inst =
                 corrupted(pb.instance, seed, static_cast<int>(seed) + 1);
             const IdMap ids = shuffled_ids(inst.graph, seed);
             return refused_or([&] {
               return pi_prime_print(
                   solve_pi_prime(inst, sinkless_leaf(false), ids,
                                  inst.graph.num_nodes()));
             });
           }});
    }
  }
  return out;
}

std::string solve_line(const SolveCase& c) {
  return "{\"case\": \"" + c.name + "\", \"fingerprint\": \"" + c.print() +
         "\"}";
}

struct ThreadsGuard {
  int saved = exec_context().threads;
  ~ThreadsGuard() { exec_context().threads = saved; }
};

TEST(PsiReference, VerifiersAndSolvesMatchCommittedFingerprints) {
  const std::vector<VerifierCase> vcases = verifier_cases();
  const std::vector<SolveCase> scases = solve_cases();
  const std::string path = golden::data_path("psi_reference_map.json");
  ThreadsGuard guard;
  std::vector<std::string> lines;
  for (const auto& c : vcases) lines.push_back(verifier_line(c));
  lines.push_back(
      bulk_line("tree/sparse/s101-400", build_gadget(3, 5), 101, 400));
  lines.push_back(
      bulk_line("path/sparse/s101-400", build_path_gadget(3, 12), 101, 400));
  for (const auto& c : scases) lines.push_back(solve_line(c));
  golden::expect_matches(path, golden::rows_json(lines));
}

}  // namespace
}  // namespace padlock
