#include "equilibrium/assumptions.hpp"

#include <atomic>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "core/enumerate.hpp"
#include "core/move_compare.hpp"
#include "core/moves.hpp"
#include "util/assert.hpp"

namespace goc {

std::string NeverAloneViolation::to_string() const {
  std::ostringstream os;
  os << "never-alone violated at " << s.to_string() << " for coin "
     << coin.to_string();
  return os.str();
}

std::string GenericityViolation::to_string() const {
  std::ostringstream os;
  os << "genericity violated: F(" << c.to_string() << ")/" << subset_sum.to_string()
     << " == F(" << c_prime.to_string() << ")/" << subset_sum_prime.to_string();
  return os.str();
}

std::optional<CoinId> never_alone_violation_at(const Game& game,
                                               const Configuration& s) {
  for (std::uint32_t c = 0; c < game.num_coins(); ++c) {
    const CoinId coin(c);
    if (s.population(coin) > 1) continue;
    bool someone_wants_in = false;
    for (std::uint32_t p = 0; p < game.num_miners() && !someone_wants_in; ++p) {
      const MinerId miner(p);
      if (s.of(miner) == coin) continue;
      if (is_better_response(game, s, miner, coin)) someone_wants_in = true;
    }
    if (!someone_wants_in) return coin;
  }
  return std::nullopt;
}

namespace {

/// `never_alone_violation_at` on the walk state: the first coin with at
/// most one miner that no miner allowed on it gains by joining.
std::optional<CoinId> walk_never_alone_violation(const MoveComparator& cmp,
                                                 const WalkState& st) {
  const std::uint32_t coins = st.num_coins();
  const std::size_t n = st.num_miners();
  for (std::uint32_t c = 0; c < coins; ++c) {
    if (st.population(c) > 1) continue;
    bool someone_wants_in = false;
    for (std::size_t p = 0; p < n && !someone_wants_in; ++p) {
      const std::uint32_t here = st.digits()[p];
      if (here == c) continue;
      someone_wants_in = cmp.gains(st.power(p), CoinId(here), st.mass(here),
                                   CoinId(c), st.mass(c)) &&
                         st.may_mine(p, c);
    }
    if (!someone_wants_in) return CoinId(c);
  }
  return std::nullopt;
}

}  // namespace

std::optional<NeverAloneViolation> find_never_alone_violation(
    const Game& game, const EnumerationOptions& opts) {
  const auto count = configuration_count(game.system());
  GOC_CHECK_ARG(count.has_value() && *count <= opts.max_configs,
                "configuration space too large to enumerate");
  const SymmetryClasses classes = classes_for(game, opts);
  const MoveComparator cmp(game);

  // Cross-shard early exit: once shard i holds a witness, shards above i
  // abort; shards below i always finish, so the reported witness is the
  // first violating canonical configuration regardless of thread count.
  std::atomic<std::size_t> found_shard{SIZE_MAX};

  const EnumerationPlan plan = plan_enumeration(game.system(), classes, opts);
  auto states = enumerate_planned(
      game, plan, classes, opts,
      [](std::size_t) { return std::optional<NeverAloneViolation>(); },
      [&](std::optional<NeverAloneViolation>& witness, const WalkState& st,
          std::size_t shard) {
        if (found_shard.load(std::memory_order_relaxed) < shard) return false;
        if (const auto coin = walk_never_alone_violation(cmp, st)) {
          witness = NeverAloneViolation{
              materialize_configuration(game.system_ptr(), st.digits()), *coin};
          atomic_store_min(found_shard, shard);
          return false;
        }
        return true;
      });
  for (auto& witness : states) {
    if (witness.has_value()) return witness;
  }
  return std::nullopt;
}

std::optional<NeverAloneViolation> find_never_alone_violation(
    const Game& game, std::uint64_t max_configs) {
  EnumerationOptions opts;
  opts.max_configs = max_configs;
  return find_never_alone_violation(game, opts);
}

std::optional<NeverAloneViolation> find_never_alone_violation_scan(
    const Game& game, std::uint64_t max_configs) {
  std::optional<NeverAloneViolation> violation;
  for_each_configuration(game.system_ptr(), max_configs,
                         [&](const Configuration& s) {
                           if (const auto coin = never_alone_violation_at(game, s)) {
                             violation = NeverAloneViolation{s, *coin};
                             return false;
                           }
                           return true;
                         });
  return violation;
}

std::optional<GenericityViolation> find_genericity_violation(
    const Game& game, std::size_t max_miners) {
  const std::size_t n = game.num_miners();
  GOC_CHECK_ARG(n <= max_miners,
                "genericity check is exponential in the number of miners");

  // All 2^n − 1 nonempty subset sums of the powers.
  std::vector<Rational> sums;
  sums.reserve((static_cast<std::size_t>(1) << n) - 1);
  for (std::uint64_t mask = 1; mask < (1ULL << n); ++mask) {
    // Incremental: sum(mask) = sum(mask without lowest bit) + power(lowest).
    const std::uint64_t low = mask & (~mask + 1);
    const std::uint64_t rest = mask ^ low;
    const std::uint32_t bit = static_cast<std::uint32_t>(__builtin_ctzll(low));
    Rational sum = game.system().power(MinerId(bit));
    if (rest != 0) sum += sums[rest - 1];
    sums.push_back(std::move(sum));
  }

  std::unordered_set<Rational> sum_set(sums.begin(), sums.end());

  for (std::uint32_t ci = 0; ci < game.num_coins(); ++ci) {
    for (std::uint32_t cj = ci + 1; cj < game.num_coins(); ++cj) {
      const CoinId c(ci), c_prime(cj);
      // F(c)/s == F(c')/s'  ⟺  s' == s·F(c')/F(c).
      const Rational ratio = game.rewards()(c_prime) / game.rewards()(c);
      for (const Rational& s : sums) {
        Rational candidate;
        try {
          candidate = s * ratio;
        } catch (const OverflowError&) {
          continue;  // product out of range cannot equal a stored sum
        }
        if (sum_set.count(candidate) != 0) {
          return GenericityViolation{c, c_prime, s, candidate};
        }
      }
    }
  }
  return std::nullopt;
}

bool is_generic(const Game& game, std::size_t max_miners) {
  return !find_genericity_violation(game, max_miners).has_value();
}

}  // namespace goc
