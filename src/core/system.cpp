#include "core/system.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace goc {

System::System(std::vector<Rational> powers, std::size_t num_coins)
    : powers_(std::move(powers)), num_coins_(num_coins) {
  GOC_CHECK_ARG(!powers_.empty(), "a system needs at least one miner");
  GOC_CHECK_ARG(num_coins_ >= 1, "a system needs at least one coin");
  GOC_CHECK_ARG(powers_.size() <= 0xFFFFFFFFu, "too many miners");
  GOC_CHECK_ARG(num_coins_ <= 0xFFFFFFFFu, "too many coins");
  total_power_ = Rational(0);
  min_power_ = powers_.front();
  max_power_ = powers_.front();
  for (const auto& m : powers_) {
    GOC_CHECK_ARG(m.is_positive(), "mining powers must be positive");
    total_power_ += m;
    if (m < min_power_) min_power_ = m;
    if (m > max_power_) max_power_ = m;
  }
  power_order_.reserve(powers_.size());
  for (std::uint32_t p = 0; p < powers_.size(); ++p) power_order_.emplace_back(p);
  if (!non_increasing_powers()) {
    std::stable_sort(power_order_.begin(), power_order_.end(),
                     [&](MinerId a, MinerId b) {
                       return powers_[a.value] > powers_[b.value];
                     });
  }
}

System System::from_integer_powers(const std::vector<std::int64_t>& powers,
                                   std::size_t num_coins) {
  std::vector<Rational> rp;
  rp.reserve(powers.size());
  for (auto v : powers) rp.emplace_back(v);
  return System(std::move(rp), num_coins);
}

bool System::strictly_decreasing_powers() const noexcept {
  for (std::size_t i = 1; i < powers_.size(); ++i) {
    if (!(powers_[i - 1] > powers_[i])) return false;
  }
  return true;
}

bool System::non_increasing_powers() const noexcept {
  for (std::size_t i = 1; i < powers_.size(); ++i) {
    if (powers_[i - 1] < powers_[i]) return false;
  }
  return true;
}

System System::sorted_by_power_desc(std::vector<MinerId>* out_permutation) const {
  std::vector<Rational> sorted;
  sorted.reserve(powers_.size());
  for (const MinerId p : power_order_) sorted.push_back(powers_[p.value]);
  if (out_permutation != nullptr) *out_permutation = power_order_;
  return System(std::move(sorted), num_coins_);
}

std::string System::to_string() const {
  std::ostringstream os;
  os << "System{n=" << num_miners() << ", coins=" << num_coins() << ", powers=[";
  for (std::size_t i = 0; i < powers_.size(); ++i) {
    if (i != 0) os << ", ";
    os << powers_[i].to_string();
  }
  os << "]}";
  return os.str();
}

}  // namespace goc
