#include "core/game.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace goc {

Game::Game(std::shared_ptr<const System> system, RewardFunction rewards,
           AccessPolicy access)
    : system_(std::move(system)),
      rewards_(std::move(rewards)),
      access_(std::move(access)) {
  GOC_CHECK_ARG(system_ != nullptr, "Game requires a system");
  GOC_CHECK_ARG(rewards_.num_coins() == system_->num_coins(),
                "reward function arity must equal the number of coins");
  access_.validate(system_->num_miners(), system_->num_coins());
}

Game::Game(System system, RewardFunction rewards, AccessPolicy access)
    : Game(std::make_shared<const System>(std::move(system)),
           std::move(rewards), std::move(access)) {}

bool Game::respects_access(const Configuration& s) const {
  GOC_CHECK_ARG(&s.system() == system_.get(),
                "configuration belongs to a different system");
  for (std::uint32_t p = 0; p < num_miners(); ++p) {
    if (!can_mine(MinerId(p), s.of(MinerId(p)))) return false;
  }
  return true;
}

XRational Game::rpu(const Configuration& s, CoinId c) const {
  GOC_CHECK_ARG(&s.system() == system_.get(),
                "configuration belongs to a different system");
  GOC_CHECK_ARG(system_->valid_coin(c), "unknown coin id");
  const Rational& mass = s.mass(c);
  if (mass.is_zero()) return XRational::infinity();
  return XRational(rewards_(c) / mass);
}

Fraction payoff_formula(const Rational& power, const Rational& reward,
                        const Rational& mass, bool here) {
  GOC_ASSERT(!here || mass.is_positive(),
             "occupied coin with nonpositive mass");
  if (power.is_integer() && reward.is_integer() && mass.is_integer()) {
    Fraction u{0, mass.numerator()};
    if (!mul_overflow(power.numerator(), reward.numerator(), &u.num) &&
        (here || !add_overflow(u.den, power.numerator(), &u.den))) {
      return u;
    }
  }
  const Rational exact =
      here ? power * reward / mass : power * reward / (mass + power);
  return Fraction{exact.numerator(), exact.denominator()};
}

Fraction Game::payoff_fraction(const Configuration& s, MinerId p,
                               CoinId c) const {
  GOC_CHECK_ARG(&s.system() == system_.get(),
                "configuration belongs to a different system");
  GOC_CHECK_ARG(system_->valid_coin(c), "unknown coin id");
  const bool here = s.of(p) == c;
  GOC_CHECK_ARG(here || can_mine(p, c),
                "access policy forbids this miner-coin pair");
  return payoff_formula(system_->power(p), rewards_(c), s.mass(c), here);
}

Rational Game::payoff(const Configuration& s, MinerId p) const {
  return payoff_fraction(s, p, s.of(p)).to_rational();
}

Rational Game::payoff_if_move(const Configuration& s, MinerId p, CoinId c) const {
  GOC_CHECK_ARG(system_->valid_coin(c), "unknown coin id");
  GOC_CHECK_ARG(can_mine(p, c), "access policy forbids this miner-coin pair");
  return payoff_fraction(s, p, c).to_rational();
}

Game Game::with_rewards(RewardFunction rewards) const {
  return Game(system_, std::move(rewards), access_);
}

void Game::reweight(RewardFunction rewards) {
  GOC_CHECK_ARG(rewards.num_coins() == system_->num_coins(),
                "reward function arity must equal the number of coins");
  rewards_ = std::move(rewards);
}

void Game::reweight(const std::vector<Rational>& weights) {
  GOC_CHECK_ARG(weights.size() == system_->num_coins(),
                "reward function arity must equal the number of coins");
  rewards_.assign(weights);
}

std::string Game::to_string() const {
  std::ostringstream os;
  os << "Game{" << system_->to_string() << ", " << rewards_.to_string() << "}";
  return os.str();
}

}  // namespace goc
