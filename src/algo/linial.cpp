#include "algo/linial.hpp"

#include "core/registry.hpp"
#include "lcl/problems/coloring.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "algo/color_reduce.hpp"
#include "local/message_engine.hpp"
#include "support/check.hpp"

namespace padlock {

namespace {

bool is_prime(std::uint64_t x) {
  if (x < 2) return false;
  for (std::uint64_t d = 2; d * d <= x; ++d)
    if (x % d == 0) return false;
  return true;
}

std::uint64_t next_prime(std::uint64_t x) {
  while (!is_prime(x)) ++x;
  return x;
}

/// Parameters of one reduction step from K colors at degree Δ: polynomial
/// degree k and field size q with q^{k+1} >= K and q > k·Δ.
struct StepParams {
  std::uint64_t q = 0;
  int k = 0;
};

/// base^exp, saturating at UINT64_MAX.
std::uint64_t saturating_pow(std::uint64_t base, int exp) {
  std::uint64_t p = 1;
  for (int i = 0; i < exp; ++i) {
    if (__builtin_mul_overflow(p, base, &p))
      return std::numeric_limits<std::uint64_t>::max();
  }
  return p;
}

/// Smallest r >= 1 with r^m >= K: the exact integer ceiling of K^{1/m},
/// from a floating-point estimate corrected in both directions.
std::uint64_t ceil_root(std::uint64_t K, int m) {
  if (K <= 1) return 1;
  auto r = static_cast<std::uint64_t>(
      std::llround(std::pow(static_cast<double>(K), 1.0 / m)));
  r = std::max<std::uint64_t>(r, 1);
  while (r > 1 && saturating_pow(r - 1, m) >= K) --r;
  while (saturating_pow(r, m) < K) ++r;
  return r;
}

StepParams step_params(std::uint64_t K, int max_degree) {
  // Prefer the smallest k with a small field; k = 1 suffices once K is
  // small, larger K wants larger k so q stays near k·Δ. For each k, q is
  // the smallest prime with q > k·Δ and q^{k+1} >= K, computed directly
  // from the integer (k+1)-th root of K.
  StepParams best;
  std::uint64_t best_square = 0;
  for (int k = 1; k <= 12; ++k) {
    const std::uint64_t q = next_prime(std::max(
        next_prime(static_cast<std::uint64_t>(k) *
                       static_cast<std::uint64_t>(max_degree) +
                   1),
        ceil_root(K, k + 1)));
    const std::uint64_t square = saturating_pow(q, 2);
    if (best.q == 0 || square < best_square) {
      best = {q, k};
      best_square = square;
    }
  }
  PADLOCK_ASSERT(best.q > 0);
  return best;
}

/// step_params caps k at 12, so coefficients fit a stack array — the
/// per-round per-neighbor heap vectors of the retired loop are gone.
constexpr int kMaxPolyDegree = 12;
using Poly = std::array<std::uint64_t, kMaxPolyDegree + 1>;

/// Coefficients of color c as a base-q number (degree-k polynomial).
void poly_of(std::uint64_t c, std::uint64_t q, int k, Poly& coeff) {
  for (int i = 0; i <= k; ++i) {
    coeff[static_cast<std::size_t>(i)] = c % q;
    c /= q;
  }
}

std::uint64_t eval_poly(const Poly& coeff, int k, std::uint64_t x,
                        std::uint64_t q) {
  std::uint64_t acc = 0;
  for (int i = k; i >= 0; --i)
    acc = (acc * x + coeff[static_cast<std::size_t>(i)]) % q;
  return acc;
}

/// Engine-v2 state machine of the iterated polynomial reduction: the step
/// schedule is a pure function of (id_space, Δ), so every node runs the
/// same precomputed round plan; each round exchanges current colors and
/// picks the smallest evaluation point separating mine from every
/// neighbor's polynomial.
struct LinialAlg {
  // The wire form is the identity: intermediate colors range over the full
  // id space, so the 8-byte word is already tight (MessageTraits default).
  using Message = std::uint64_t;  // current color
  static constexpr bool kUniformSend = true;  // broadcast each round

  const std::vector<StepParams>& schedule;
  std::vector<std::uint64_t>& color;
  std::vector<std::uint8_t> left;  // per-node rounds remaining (log* n ≪ 255)

  LinialAlg(std::size_t n, const std::vector<StepParams>& schedule_in,
            std::vector<std::uint64_t>& color_in)
      : schedule(schedule_in), color(color_in),
        left(n, static_cast<std::uint8_t>(schedule_in.size())) {}

  std::optional<Message> send(NodeId v, int /*port*/, int /*round*/) {
    return color[v];
  }

  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    const StepParams sp = schedule[static_cast<std::size_t>(round) - 1];
    Poly mine;
    poly_of(color[v], sp.q, sp.k, mine);
    // Pick the smallest evaluation point where my polynomial differs
    // from every neighbor's; two distinct degree-k polynomials agree on
    // <= k points, so <= k·Δ < q points are blocked in total.
    std::uint64_t chosen = sp.q;  // sentinel
    for (std::uint64_t x = 0; x < sp.q && chosen == sp.q; ++x) {
      bool ok = true;
      const std::uint64_t mine_at_x = eval_poly(mine, sp.k, x, sp.q);
      for (int p = 0; p < inbox.size() && ok; ++p) {
        const auto m = inbox[p];
        if (!m) continue;
        // Equal colors on an edge cannot happen (proper invariant); the
        // guard keeps parallel-edge self-comparisons inert.
        if (*m == color[v]) continue;
        Poly theirs;
        poly_of(*m, sp.q, sp.k, theirs);
        if (eval_poly(theirs, sp.k, x, sp.q) == mine_at_x) ok = false;
      }
      if (ok) chosen = x;
    }
    PADLOCK_ASSERT(chosen < sp.q);
    color[v] = chosen * sp.q + eval_poly(mine, sp.k, chosen, sp.q);
    --left[v];
  }

  bool done(NodeId v) const { return left[v] == 0; }
};

}  // namespace

std::uint64_t linial_step_palette(std::uint64_t K, int max_degree) {
  const StepParams sp = step_params(K, max_degree);
  return sp.q * sp.q;
}

LinialResult linial_color(const Graph& g, const IdMap& ids,
                          std::uint64_t id_space) {
  PADLOCK_REQUIRE(ids_valid(g, ids));
  PADLOCK_REQUIRE(g.loop_free());
  const int delta = std::max(1, g.max_degree());
  const auto n = g.num_nodes();

  std::vector<std::uint64_t> color(n);
  for (NodeId v = 0; v < n; ++v) {
    PADLOCK_REQUIRE(ids[v] >= 1 && ids[v] <= id_space);
    color[v] = ids[v] - 1;  // 0-based palette {0..id_space-1}
  }
  std::uint64_t K = id_space;

  LinialResult result;
  // Precompute the reduction schedule — a pure function of (id_space, Δ),
  // iterated while a step still shrinks the palette — then run it on the
  // message engine (one engine round per step, colors exchanged with
  // neighbors; the coloring stays proper throughout).
  std::vector<StepParams> schedule;
  while (linial_step_palette(K, delta) < K) {
    const StepParams sp = step_params(K, delta);
    PADLOCK_ASSERT(sp.k <= kMaxPolyDegree);
    schedule.push_back(sp);
    K = sp.q * sp.q;
  }
  PADLOCK_ASSERT(schedule.size() <= 255);  // left is a byte counter
  LinialAlg alg(n, schedule, color);
  result.linial_rounds = run_message_rounds(
      g, alg, static_cast<std::int64_t>(schedule.size()) + 1);
  PADLOCK_ASSERT(result.linial_rounds ==
                 static_cast<int>(schedule.size()));

  // Final reduction: schedule the K classes greedily down to Δ+1.
  NodeMap<int> kcolors(g, 0);
  for (NodeId v = 0; v < n; ++v)
    kcolors[v] = static_cast<int>(color[v]) + 1;
  const auto reduced =
      reduce_to_degree_plus_one(g, kcolors, static_cast<int>(K));
  result.colors = reduced.colors;
  result.reduction_rounds = reduced.rounds;
  return result;
}


void register_linial_algos(AlgorithmRegistry& r) {
  r.register_algo({
      .name = "linial",
      .problem = "coloring",
      .determinism = Determinism::kDeterministic,
      .complexity = "Theta(log* n)",
      .requires_text = "loop-free graphs",
      .precondition = graph_loop_free,
      .solve =
          [](const RunContext& ctx) {
            const auto res = linial_color(ctx.graph, ctx.ids, ctx.id_space);
            AlgoResult out{
                .output = colors_to_labeling(ctx.graph, res.colors),
                .rounds = RoundReport::uniform(ctx.graph, res.total_rounds()),
                .stats = {}};
            out.stats.set("linial_rounds", res.linial_rounds);
            out.stats.set("reduction_rounds", res.reduction_rounds);
            return out;
          },
  });
}

}  // namespace padlock
