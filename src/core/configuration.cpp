#include "core/configuration.hpp"

#include <sstream>

#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace goc {

Configuration::Configuration(std::shared_ptr<const System> system,
                             std::vector<CoinId> assignment)
    : system_(std::move(system)), assignment_(std::move(assignment)) {
  GOC_CHECK_ARG(system_ != nullptr, "Configuration requires a system");
  GOC_CHECK_ARG(assignment_.size() == system_->num_miners(),
                "assignment arity must equal the number of miners");
  mass_.assign(system_->num_coins(), Rational(0));
  count_.assign(system_->num_coins(), 0);
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    const CoinId c = assignment_[i];
    GOC_CHECK_ARG(system_->valid_coin(c), "assignment references unknown coin");
    mass_[c.value] += system_->power(MinerId(static_cast<std::uint32_t>(i)));
    if (count_[c.value]++ == 0) ++occupied_;
  }
}

Configuration Configuration::all_at(std::shared_ptr<const System> system,
                                    CoinId c) {
  GOC_CHECK_ARG(system != nullptr, "Configuration requires a system");
  GOC_CHECK_ARG(system->valid_coin(c), "unknown coin id");
  const std::size_t n = system->num_miners();
  return Configuration(std::move(system), std::vector<CoinId>(n, c));
}

std::size_t Configuration::population(CoinId c) const {
  GOC_CHECK_ARG(system_->valid_coin(c), "unknown coin id");
  return count_[c.value];
}

std::vector<MinerId> Configuration::members(CoinId c) const {
  GOC_CHECK_ARG(system_->valid_coin(c), "unknown coin id");
  std::vector<MinerId> out;
  out.reserve(count_[c.value]);
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    if (assignment_[i] == c) out.emplace_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

void Configuration::move(MinerId p, CoinId to) {
  GOC_CHECK_ARG(system_->valid_miner(p), "unknown miner id");
  GOC_CHECK_ARG(system_->valid_coin(to), "unknown coin id");
  const CoinId from = assignment_[p.value];
  if (from == to) return;
  const Rational& m = system_->power(p);
  mass_[from.value] -= m;
  if (--count_[from.value] == 0) --occupied_;
  mass_[to.value] += m;
  if (count_[to.value]++ == 0) ++occupied_;
  assignment_[p.value] = to;
  ++move_epoch_;
  last_delta_ = MoveDelta{p, from, to};
  GOC_DASSERT(!mass_[from.value].is_negative(), "coin mass went negative");
}

Configuration Configuration::with_move(MinerId p, CoinId to) const {
  Configuration copy = *this;
  copy.move(p, to);
  return copy;
}

bool Configuration::operator==(const Configuration& other) const {
  GOC_CHECK_ARG(system_ == other.system_ ||
                    (system_->num_miners() == other.system_->num_miners() &&
                     system_->num_coins() == other.system_->num_coins()),
                "comparing configurations of different systems");
  return assignment_ == other.assignment_;
}

std::size_t Configuration::hash() const noexcept {
  std::uint64_t h = fnv::kOffset;
  for (const CoinId c : assignment_) {
    fnv::mix_word(h, c.value);
  }
  return h;
}

std::string Configuration::to_string() const {
  std::ostringstream os;
  os << "<";
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    if (i != 0) os << ", ";
    os << assignment_[i].to_string();
  }
  os << ">";
  return os.str();
}

}  // namespace goc
