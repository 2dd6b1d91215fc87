#include "core/generators.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace goc {
namespace {

std::vector<Rational> draw_powers(const GameSpec& spec, Rng& rng) {
  GOC_CHECK_ARG(spec.power_lo > 0, "power_lo must be positive");
  GOC_CHECK_ARG(spec.power_hi >= spec.power_lo, "power_hi < power_lo");
  std::vector<Rational> powers;
  powers.reserve(spec.num_miners);
  for (std::size_t i = 0; i < spec.num_miners; ++i) {
    switch (spec.power_shape) {
      case PowerShape::kEqual:
        powers.emplace_back(spec.power_hi);
        break;
      case PowerShape::kUniform:
        powers.emplace_back(rng.uniform_int(spec.power_lo, spec.power_hi));
        break;
      case PowerShape::kZipf: {
        const double rank = static_cast<double>(i + 1);
        const double raw =
            static_cast<double>(spec.power_hi) / std::pow(rank, spec.zipf_s);
        powers.emplace_back(std::max<std::int64_t>(
            spec.power_lo, static_cast<std::int64_t>(std::ceil(raw))));
        break;
      }
      case PowerShape::kPareto: {
        const double raw =
            rng.pareto(static_cast<double>(spec.power_lo), spec.pareto_alpha);
        // Clamp the tail so integer powers stay comfortably inside i64.
        const double clamped =
            std::min(raw, static_cast<double>(spec.power_lo) * 1e9);
        powers.emplace_back(static_cast<std::int64_t>(std::ceil(clamped)));
        break;
      }
    }
  }
  return powers;
}

std::vector<Rational> draw_rewards(const GameSpec& spec, Rng& rng) {
  GOC_CHECK_ARG(spec.reward_lo > 0, "reward_lo must be positive");
  GOC_CHECK_ARG(spec.reward_hi >= spec.reward_lo, "reward_hi < reward_lo");
  std::vector<Rational> rewards;
  rewards.reserve(spec.num_coins);
  for (std::size_t c = 0; c < spec.num_coins; ++c) {
    switch (spec.reward_shape) {
      case RewardShape::kEqual:
        rewards.emplace_back(spec.reward_hi);
        break;
      case RewardShape::kUniform:
        rewards.emplace_back(rng.uniform_int(spec.reward_lo, spec.reward_hi));
        break;
      case RewardShape::kMajors: {
        // Geometric decay from the top coin with ±10% jitter; models a
        // couple of majors plus a long tail of minor coins.
        const double base =
            static_cast<double>(spec.reward_hi) / std::pow(2.0, static_cast<double>(c));
        const double jittered = base * rng.uniform(0.9, 1.1);
        rewards.emplace_back(std::max<std::int64_t>(
            spec.reward_lo, static_cast<std::int64_t>(std::llround(jittered))));
        break;
      }
    }
  }
  return rewards;
}

}  // namespace

const std::string& power_shape_name(PowerShape shape) {
  // Interned: the labels are shared statics rather than per-call
  // allocations.
  static const std::string kEqual = "equal", kUniform = "uniform",
                           kZipf = "zipf", kPareto = "pareto",
                           kUnknown = "unknown";
  switch (shape) {
    case PowerShape::kEqual:
      return kEqual;
    case PowerShape::kUniform:
      return kUniform;
    case PowerShape::kZipf:
      return kZipf;
    case PowerShape::kPareto:
      return kPareto;
  }
  return kUnknown;
}

const std::string& reward_shape_name(RewardShape shape) {
  static const std::string kEqual = "equal", kUniform = "uniform",
                           kMajors = "majors", kUnknown = "unknown";
  switch (shape) {
    case RewardShape::kEqual:
      return kEqual;
    case RewardShape::kUniform:
      return kUniform;
    case RewardShape::kMajors:
      return kMajors;
  }
  return kUnknown;
}

std::string GameSpec::to_string() const {
  std::ostringstream os;
  os << "GameSpec{n=" << num_miners << ", coins=" << num_coins
     << ", powers=" << static_cast<int>(power_shape) << "[" << power_lo << ","
     << power_hi << "]"
     << ", rewards=" << static_cast<int>(reward_shape) << "[" << reward_lo
     << "," << reward_hi << "]"
     << (distinct_powers ? ", distinct" : "") << (sort_desc ? ", sorted" : "")
     << "}";
  return os.str();
}

Game random_game(const GameSpec& spec, Rng& rng) {
  GOC_CHECK_ARG(spec.num_miners >= 1, "need at least one miner");
  GOC_CHECK_ARG(spec.num_coins >= 1, "need at least one coin");
  std::vector<Rational> powers = draw_powers(spec, rng);
  if (spec.sort_desc) {
    std::sort(powers.begin(), powers.end(),
              [](const Rational& a, const Rational& b) { return a > b; });
  }
  System system(std::move(powers), spec.num_coins);
  if (spec.distinct_powers) {
    system = with_distinct_powers(system);
  }
  return Game(std::move(system), RewardFunction(draw_rewards(spec, rng)));
}

Configuration random_configuration(const Game& game, Rng& rng) {
  std::vector<CoinId> assignment;
  assignment.reserve(game.num_miners());
  for (std::uint32_t i = 0; i < game.num_miners(); ++i) {
    if (game.access().is_unrestricted()) {
      assignment.emplace_back(
          static_cast<std::uint32_t>(rng.next_below(game.num_coins())));
    } else {
      const auto coins = game.allowed_coins(MinerId(i));
      assignment.push_back(coins[rng.pick_index(coins)]);
    }
  }
  return Configuration(game.system_ptr(), std::move(assignment));
}

System with_distinct_powers(const System& system, std::int64_t scale) {
  const auto n = static_cast<std::int64_t>(system.num_miners());
  if (scale <= 0) scale = n + 1;
  GOC_CHECK_ARG(scale > n, "scale must exceed the number of miners");
  // Map m_i ↦ m_i·scale + (n−i): the additive ranks are pairwise distinct
  // and strictly decreasing in i, so equal powers become distinct (earlier
  // miner larger), and any pre-existing gap — at least 1/q for rationals
  // with denominator q — is widened past the < n additive spread, so the
  // original (non-strict) order is preserved, strictified. Crucially,
  // integer inputs stay integers: exact-arithmetic mass sums keep unit
  // denominators instead of compounding fractions, and payoff ratios
  // m_p/M_c are only perturbed by O(n/scale), not rescaled (the game is
  // invariant under uniform power scaling).
  GOC_CHECK_ARG(
      [&] {
        // The smallest nonzero pairwise gap is between adjacent sorted
        // values; it must exceed the additive spread n/scale.
        std::vector<Rational> sorted = system.powers();
        std::sort(sorted.begin(), sorted.end());
        for (std::size_t i = 1; i < sorted.size(); ++i) {
          const Rational gap = sorted[i] - sorted[i - 1];
          if (!gap.is_zero() && gap * Rational(scale) < Rational(n)) return false;
        }
        return true;
      }(),
      "power gaps too fine for this scale; pass a larger scale");
  std::vector<Rational> powers = system.powers();
  for (std::size_t i = 0; i < powers.size(); ++i) {
    powers[i] = powers[i] * Rational(scale) +
                Rational(n - static_cast<std::int64_t>(i));
  }
  return System(std::move(powers), system.num_coins());
}

}  // namespace goc
