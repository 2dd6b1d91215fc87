#include "potential/exact_potential.hpp"

#include <atomic>
#include <optional>
#include <sstream>

#include "util/assert.hpp"
#include "util/int128.hpp"

namespace goc {

std::string FourCycleWitness::to_string() const {
  std::ostringstream os;
  os << "4-cycle via " << p.to_string() << "," << q.to_string() << ": "
     << s1.to_string() << " -> " << s2.to_string() << " -> " << s3.to_string()
     << " -> " << s4.to_string() << " -> (s1), sum=" << cycle_sum.to_string();
  return os.str();
}

Rational four_cycle_sum(const Game& game, const Configuration& s, MinerId p,
                        CoinId a_prime, MinerId q, CoinId b_prime) {
  GOC_CHECK_ARG(p != q, "four_cycle_sum requires distinct miners");
  const CoinId a = s.of(p);
  const CoinId b = s.of(q);
  GOC_CHECK_ARG(a != a_prime && b != b_prime,
                "cycle strategies must differ from the base assignment");
  const Configuration& s1 = s;
  const Configuration s2 = s1.with_move(p, a_prime);
  const Configuration s3 = s2.with_move(q, b_prime);
  const Configuration s4 = s3.with_move(p, a);
  // s4.with_move(q, b) == s1 closes the cycle.
  return (game.payoff(s2, p) - game.payoff(s1, p)) +
         (game.payoff(s3, q) - game.payoff(s2, q)) +
         (game.payoff(s4, p) - game.payoff(s3, p)) +
         (game.payoff(s1, q) - game.payoff(s4, q));
}

namespace {

/// The legacy reference: full-space bases, three configuration copies per
/// cycle (`four_cycle_sum`).
template <typename OnCycle>
void visit_four_cycles_scan(const Game& game, std::uint64_t max_bases,
                            const OnCycle& on_cycle) {
  const std::uint32_t n = static_cast<std::uint32_t>(game.num_miners());
  const std::uint32_t coins = static_cast<std::uint32_t>(game.num_coins());
  if (n < 2 || coins < 2) return;
  std::uint64_t bases = 0;
  for_each_configuration(
      game.system_ptr(), UINT64_MAX, [&](const Configuration& base) {
        if (++bases > max_bases) return false;
        for (std::uint32_t pi = 0; pi < n; ++pi) {
          for (std::uint32_t qi = pi + 1; qi < n; ++qi) {
            const MinerId p(pi), q(qi);
            for (std::uint32_t ap = 0; ap < coins; ++ap) {
              if (CoinId(ap) == base.of(p)) continue;
              for (std::uint32_t bp = 0; bp < coins; ++bp) {
                if (CoinId(bp) == base.of(q)) continue;
                if (!on_cycle(base, p, CoinId(ap), q, CoinId(bp))) return false;
              }
            }
          }
        }
        return true;
      });
}

/// The engine's in-place cycle walker: walks each 4-cycle
/// s1→s2→s3→s4 rooted at a base with four O(1) hops on a copy of the walk
/// state — no configuration copies. Payoffs come from `payoff_formula` on
/// the scaled integer power and mass: the scale cancels from m_p/M_c, so
/// they are exact in the original units.
class CycleScanner {
 public:
  explicit CycleScanner(const Game& game)
      : rewards_(&game.rewards()), s_(game) {}

  /// Invokes `on(p, a', q, b', cycle_sum)` for every 4-cycle rooted at
  /// `base`, in (p, q, a', b') order; `on` returns false to abort.
  /// Returns false iff aborted.
  template <typename OnCycle>
  bool scan(const WalkState& base, OnCycle&& on) {
    s_ = base;
    WalkState& s = s_;
    const std::size_t n = s.num_miners();
    const std::uint32_t coins = s.num_coins();
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const std::uint32_t a = s.digits()[p];
        const std::uint32_t b = s.digits()[q];
        const Rational up_s1 = payoff_at(s, p);
        const Rational uq_s1 = payoff_at(s, q);
        for (std::uint32_t ap = 0; ap < coins; ++ap) {
          if (ap == a) continue;
          s.hop(p, a, ap);  // s2 = (s1_{-p}, a')
          const Rational up_s2 = payoff_at(s, p);
          const Rational uq_s2 = payoff_at(s, q);
          for (std::uint32_t bp = 0; bp < coins; ++bp) {
            if (bp == b) continue;
            s.hop(q, b, bp);  // s3 = (s2_{-q}, b')
            const Rational uq_s3 = payoff_at(s, q);
            const Rational up_s3 = payoff_at(s, p);
            s.hop(p, ap, a);  // s4 = (s3_{-p}, a)
            const Rational up_s4 = payoff_at(s, p);
            const Rational uq_s4 = payoff_at(s, q);
            const Rational sum = (up_s2 - up_s1) + (uq_s3 - uq_s2) +
                                 (up_s4 - up_s3) + (uq_s1 - uq_s4);
            if (!on(MinerId(static_cast<std::uint32_t>(p)), CoinId(ap),
                    MinerId(static_cast<std::uint32_t>(q)), CoinId(bp), sum)) {
              return false;
            }
            s.hop(p, a, ap);  // back to s3
            s.hop(q, bp, b);  // back to s2
          }
          s.hop(p, ap, a);  // back to base
        }
      }
    }
    return true;
  }

 private:
  /// u_p(s) = m_p·F(s.p)/M_{s.p}(s).
  Rational payoff_at(const WalkState& s, std::size_t p) const {
    const std::uint32_t c = s.digits()[p];
    return payoff_formula(Rational::from_parts(s.power(p), 1),
                          (*rewards_)(CoinId(c)),
                          Rational::from_parts(s.mass(c), 1), true)
        .to_rational();
  }

  const RewardFunction* rewards_;
  WalkState s_;
};

/// Scheduling weight: cycles per base, so the serial cutoff compares like
/// with like (a base costs ~n²|C|² cycle sums, not one equilibrium check).
std::uint64_t cycles_per_base(const Game& game) {
  const std::uint64_t n = game.num_miners();
  const std::uint64_t c = game.num_coins() - 1;
  return n * (n - 1) / 2 * c * c;
}

}  // namespace

std::optional<FourCycleWitness> find_nonzero_four_cycle(
    const Game& game, std::uint64_t max_bases, const EnumerationOptions& opts) {
  if (game.num_miners() < 2 || game.num_coins() < 2) return std::nullopt;
  GOC_CHECK_ARG(configuration_count(game.system()).has_value(),
                "configuration space too large to enumerate");
  const SymmetryClasses classes = classes_for(game, opts);
  const EnumerationPlan plan =
      plan_enumeration(game.system(), classes, opts, cycles_per_base(game));

  struct ShardState {
    CycleScanner scanner;
    std::uint64_t budget;  // canonical bases this shard may still visit
    std::optional<FourCycleWitness> witness;
  };
  std::atomic<std::size_t> found_shard{SIZE_MAX};
  auto states = enumerate_planned(
      game, plan, classes, opts,
      [&](std::size_t i) {
        // The `max_bases` cap applies to the first canonical bases in
        // global rank order — a deterministic per-shard budget.
        const std::uint64_t start = plan.shards.start_ranks[i];
        return ShardState{CycleScanner(game),
                          start >= max_bases ? 0 : max_bases - start,
                          std::nullopt};
      },
      [&](ShardState& st, const WalkState& base, std::size_t shard) {
        if (st.budget == 0) return false;
        --st.budget;
        if (found_shard.load(std::memory_order_relaxed) < shard) return false;
        return st.scanner.scan(base, [&](MinerId p, CoinId ap, MinerId q,
                                         CoinId bp, const Rational& sum) {
          if (sum.is_zero()) return true;
          const Configuration s1 =
              materialize_configuration(game.system_ptr(), base.digits());
          const Configuration s2 = s1.with_move(p, ap);
          const Configuration s3 = s2.with_move(q, bp);
          const Configuration s4 = s3.with_move(p, s1.of(p));
          st.witness = FourCycleWitness{s1, s2, s3, s4, p, q, sum};
          atomic_store_min(found_shard, shard);
          return false;
        });
      });
  for (auto& st : states) {
    if (st.witness.has_value()) return std::move(st.witness);
  }
  return std::nullopt;
}

std::optional<FourCycleWitness> find_nonzero_four_cycle(const Game& game,
                                                        std::uint64_t max_bases) {
  return find_nonzero_four_cycle(game, max_bases, EnumerationOptions{});
}

std::optional<FourCycleWitness> find_nonzero_four_cycle_scan(
    const Game& game, std::uint64_t max_bases) {
  std::optional<FourCycleWitness> witness;
  visit_four_cycles_scan(game, max_bases,
                         [&](const Configuration& base, MinerId p, CoinId ap,
                             MinerId q, CoinId bp) {
                           const Rational sum = four_cycle_sum(game, base, p, ap, q, bp);
                           if (!sum.is_zero()) {
                             const Configuration s2 = base.with_move(p, ap);
                             const Configuration s3 = s2.with_move(q, bp);
                             const Configuration s4 = s3.with_move(p, base.of(p));
                             witness = FourCycleWitness{base, s2, s3, s4, p, q, sum};
                             return false;
                           }
                           return true;
                         });
  return witness;
}

bool has_exact_potential(const Game& game, const EnumerationOptions& opts) {
  const auto count = configuration_count(game.system());
  GOC_CHECK_ARG(count.has_value() && *count <= opts.max_configs,
                "game too large for exhaustive exact-potential check");
  if (game.num_miners() < 2 || game.num_coins() < 2) return true;
  const SymmetryClasses classes = classes_for(game, opts);
  const EnumerationPlan plan =
      plan_enumeration(game.system(), classes, opts, cycles_per_base(game));
  std::atomic<bool> nonzero{false};
  enumerate_planned(
      game, plan, classes, opts, [&](std::size_t) { return CycleScanner(game); },
      [&](CycleScanner& scanner, const WalkState& base, std::size_t) {
        if (nonzero.load(std::memory_order_relaxed)) return false;
        return scanner.scan(base, [&](MinerId, CoinId, MinerId, CoinId,
                                      const Rational& sum) {
          if (!sum.is_zero()) {
            nonzero.store(true, std::memory_order_relaxed);
            return false;
          }
          return true;
        });
      });
  return !nonzero.load();
}

bool has_exact_potential(const Game& game, std::uint64_t max_configs) {
  EnumerationOptions opts;
  opts.max_configs = max_configs;
  return has_exact_potential(game, opts);
}

bool has_exact_potential_scan(const Game& game, std::uint64_t max_configs) {
  const auto count = configuration_count(game.system());
  GOC_CHECK_ARG(count.has_value() && *count <= max_configs,
                "game too large for exhaustive exact-potential check");
  bool all_zero = true;
  visit_four_cycles_scan(game, *count,
                         [&](const Configuration& base, MinerId p, CoinId ap,
                             MinerId q, CoinId bp) {
                           if (!four_cycle_sum(game, base, p, ap, q, bp).is_zero()) {
                             all_zero = false;
                             return false;
                           }
                           return true;
                         });
  return all_zero;
}

Game proposition1_game() {
  System system = System::from_integer_powers({2, 1}, 2);
  return Game(std::move(system), RewardFunction::from_integers({1, 1}));
}

}  // namespace goc
