#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

/// \file access.hpp
/// Player-specific action sets — the paper's asymmetric case (§6: "some
/// coins can be mined only by a subset of the miners").
///
/// In practice mining hardware partitions the coin set: SHA-256 ASICs mine
/// BTC/BCH, Ethash GPUs mine(d) ETH/ETC, and so on — whattomine.com asks
/// for the hardware before listing coins. An `AccessPolicy` records, per
/// miner, which coins it may mine. The ordinal-potential argument of
/// Theorem 1 only inspects the improving move itself, so *better-response
/// learning still converges* under any access policy (exercised by
/// `RestrictedConvergence.*`); the greedy equilibrium construction of
/// Appendix A, by contrast, genuinely needs symmetry (Claim 7 compares
/// miners across the same action set), so restricted games obtain
/// equilibria via learning instead.

namespace goc {

class AccessPolicy {
 public:
  /// Unrestricted: every miner may mine every coin (the paper's base
  /// model). This is the default-constructed state.
  AccessPolicy() = default;

  /// Explicit matrix: `allowed[p][c]`. Every miner needs ≥ 1 allowed coin.
  AccessPolicy(std::vector<std::vector<bool>> allowed);

  /// Random policy: each (miner, coin) pair is allowed with probability
  /// `density`; each miner additionally gets one uniformly chosen coin so
  /// the policy is well-formed. Deterministic for a fixed rng state.
  static AccessPolicy random(std::size_t num_miners, std::size_t num_coins,
                             double density, Rng& rng);

  /// Hardware-class policy: miner p belongs to class `miner_class[p]` and
  /// may mine coin c iff `class_allows[miner_class[p]][c]`.
  static AccessPolicy hardware_classes(
      const std::vector<std::size_t>& miner_class,
      const std::vector<std::vector<bool>>& class_allows);

  /// True when this is the unrestricted policy (matrix absent or all-true).
  bool is_unrestricted() const noexcept;

  /// May `p` mine `c`? Unrestricted policies allow everything.
  bool allowed(MinerId p, CoinId c) const;

  /// The coins `p` may mine, in id order (empty matrix ⇒ caller should use
  /// the full coin range; see `Game::allowed_coins`).
  std::vector<CoinId> allowed_coins(MinerId p, std::size_t num_coins) const;

  /// Validates shape against a system of `num_miners` × `num_coins`;
  /// throws std::invalid_argument on mismatch or a coin-less miner.
  void validate(std::size_t num_miners, std::size_t num_coins) const;

  /// Fraction of allowed (miner, coin) pairs; 1 when unrestricted.
  double density(std::size_t num_miners, std::size_t num_coins) const;

  std::string to_string() const;

 private:
  // Empty ⇒ unrestricted. Otherwise allowed_[p][c].
  std::vector<std::vector<bool>> allowed_;
};

}  // namespace goc
