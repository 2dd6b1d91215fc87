#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"
#include "util/assert.hpp"
#include "util/rational.hpp"

/// \file system.hpp
/// The paper's system tuple ⟨Π, C⟩ (Section 2): a finite set of miners with
/// positive mining powers and a finite set of coins.

namespace goc {

/// Immutable after construction; a `Game` couples a System with a reward
/// function, and a `Configuration` assigns each miner a coin.
class System {
 public:
  /// `powers[i]` is the mining power of miner `p_i`; all must be positive.
  /// `num_coins` must be at least 1.
  System(std::vector<Rational> powers, std::size_t num_coins);

  /// Convenience: integer powers.
  static System from_integer_powers(const std::vector<std::int64_t>& powers,
                                    std::size_t num_coins);

  std::size_t num_miners() const noexcept { return powers_.size(); }
  std::size_t num_coins() const noexcept { return num_coins_; }

  const Rational& power(MinerId p) const {
    GOC_CHECK_ARG(valid_miner(p), "unknown miner id");
    return powers_[p.value];
  }
  const std::vector<Rational>& powers() const noexcept { return powers_; }

  /// Σ_p m_p.
  const Rational& total_power() const noexcept { return total_power_; }
  /// min_p m_p.
  const Rational& min_power() const noexcept { return min_power_; }
  /// max_p m_p.
  const Rational& max_power() const noexcept { return max_power_; }

  /// True iff powers are strictly decreasing in miner-id order
  /// (m_{p_1} > m_{p_2} > …), the standing assumption of Section 5.
  bool strictly_decreasing_powers() const noexcept;

  /// True iff powers are non-increasing in miner-id order
  /// (m_{p_1} ≥ m_{p_2} ≥ …), the convention of Section 4 / Appendix A.
  bool non_increasing_powers() const noexcept;

  /// Every miner once, by descending power, ties by ascending id — fixed
  /// at construction, so no consumer sorts the powers again.
  const std::vector<MinerId>& power_order() const noexcept {
    return power_order_;
  }

  /// A copy of this system with miners permuted into `power_order()`.
  /// `out_permutation[new_index] = old MinerId` when non-null.
  System sorted_by_power_desc(std::vector<MinerId>* out_permutation = nullptr) const;

  bool valid_miner(MinerId p) const noexcept {
    return p.value < powers_.size();
  }
  bool valid_coin(CoinId c) const noexcept { return c.value < num_coins_; }

  std::string to_string() const;

 private:
  std::vector<Rational> powers_;
  std::size_t num_coins_;
  Rational total_power_;
  Rational min_power_;
  Rational max_power_;
  std::vector<MinerId> power_order_;
};

}  // namespace goc
