#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/int128.hpp"

/// \file rational.hpp
/// Exact rational arithmetic for game-theoretic comparisons.
///
/// Every quantity the paper reasons about — mining power, coin reward,
/// revenue-per-unit (RPU), payoff — is compared *exactly*: better-response
/// steps require strict improvement, the ordinal potential of Theorem 1 is a
/// lexicographic order over RPU values, and Assumption 2 (genericity) is a
/// statement about exact inequality of fractions. Floating point would make
/// all of these silently unsound, so the core model uses `Rational`
/// throughout. Stochastic substrates (market/chain simulators) work in
/// `double` and quantize at the boundary via `Rational::from_double`.
///
/// Representation: normalized `num/den` with `den > 0`,
/// `gcd(|num|, den) == 1`, both stored as 128-bit integers (a cross-reduced
/// product is already in lowest terms). Operations that
/// would exceed 128-bit intermediates throw `goc::OverflowError`;
/// comparisons never overflow. They all go through `compare_fractions`,
/// which cross-multiplies first, reduces by GCD only when a product
/// overflows and then falls back to a continued-fraction walk.
///
/// `Fraction` is the unreduced companion: an exact value kept as computed,
/// so a chain of decisions between payoffs costs cross products and no
/// GCD, and only a value that is actually returned is reduced (once, by
/// `to_rational()`).

namespace goc {

namespace detail {

/// The overflow branch of `compare_fractions`, out of line: reduces the
/// cross products by GCD (counted as `arith.compare.reduced`) and, if 128
/// bits still do not suffice, compares continued-fraction expansions term
/// by term (counted as `arith.compare.cf`).
std::strong_ordering compare_fractions_overflowed(u128 a_num, u128 a_den,
                                                  u128 b_num,
                                                  u128 b_den) noexcept;

}  // namespace detail

/// Exact comparison of a_num/a_den vs b_num/b_den for nonnegative
/// numerators and positive denominators — the one fraction comparison of
/// the arithmetic layer (`Rational::operator<=>` and
/// `compare_positive_fractions` are thin adapters over it). Cross-multiplies
/// the raw magnitudes first: two 128-bit multiplies, no GCD and no
/// counter. Only when a product overflows does it take the out-of-line
/// GCD-reduction and continued-fraction fallbacks. Never overflows.
inline std::strong_ordering compare_fractions(u128 a_num, u128 a_den,
                                              u128 b_num, u128 b_den) noexcept {
  u128 lhs;
  u128 rhs;
  if (!__builtin_mul_overflow(a_num, b_den, &lhs) &&
      !__builtin_mul_overflow(b_num, a_den, &rhs)) [[likely]] {
    return lhs <=> rhs;
  }
  return detail::compare_fractions_overflowed(a_num, a_den, b_num, b_den);
}

class Rational {
 public:
  /// Zero.
  constexpr Rational() noexcept : num_(0), den_(1) {}

  /// Integer value.
  constexpr Rational(std::int64_t value) noexcept  // NOLINT(google-explicit-constructor)
      : num_(value), den_(1) {}

  /// `numerator / denominator`; throws std::invalid_argument on zero
  /// denominator. Normalizes sign and reduces to lowest terms.
  Rational(std::int64_t numerator, std::int64_t denominator);

  /// Named constructor from raw 128-bit parts (used internally and by
  /// tests); same normalization rules as the int64 constructor.
  static Rational from_parts(i128 numerator, i128 denominator);

  /// Best rational approximation of `value` with denominator at most
  /// `max_denominator`, via a Stern–Brocot / continued-fraction walk.
  /// Throws std::invalid_argument for non-finite input or
  /// `max_denominator == 0`.
  static Rational from_double(double value, std::uint64_t max_denominator);

  i128 numerator() const noexcept { return num_; }
  i128 denominator() const noexcept { return den_; }

  bool is_zero() const noexcept { return num_ == 0; }
  bool is_negative() const noexcept { return num_ < 0; }
  bool is_positive() const noexcept { return num_ > 0; }
  bool is_integer() const noexcept { return den_ == 1; }

  /// Exact three-way comparison. Never throws and never overflows: signs
  /// first, then the magnitudes through `compare_fractions` (raw cross
  /// products; GCD reduction and continued fractions only on overflow).
  std::strong_ordering operator<=>(const Rational& other) const noexcept;
  bool operator==(const Rational& other) const noexcept {
    return num_ == other.num_ && den_ == other.den_;
  }

  Rational operator-() const noexcept;
  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  /// Throws std::domain_error when dividing by zero.
  Rational operator/(const Rational& other) const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  /// |x|.
  Rational abs() const noexcept;
  /// 1/x; throws std::domain_error on zero.
  Rational reciprocal() const;

  /// Closest double (may round).
  double to_double() const noexcept;

  /// "p" for integers, "p/q" otherwise.
  std::string to_string() const;

  /// FNV-style hash consistent with operator==.
  std::size_t hash() const noexcept;

 private:
  Rational(i128 num, i128 den, bool already_normalized);
  void normalize();

  i128 num_;
  i128 den_;  // invariant: den_ > 0, gcd(|num_|, den_) == 1
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

/// An exact fraction `num / den` with `den > 0` that is *not* reduced —
/// the learning oracle's payoffs (positive) and gains (either sign). It
/// compares by value (1/2 == 2/4) through `compare_fractions`: a sign
/// check and two 128-bit cross products, with no GCD unless a product
/// overflows. `to_rational()` reduces once.
struct Fraction {
  i128 num = 0;
  i128 den = 1;

  std::strong_ordering operator<=>(const Fraction& other) const noexcept {
    const bool negative = num < 0;
    if (negative != (other.num < 0)) {
      return negative ? std::strong_ordering::less
                      : std::strong_ordering::greater;
    }
    const std::strong_ordering mag =
        compare_fractions(uabs128(num), static_cast<u128>(den),
                          uabs128(other.num), static_cast<u128>(other.den));
    return negative ? 0 <=> mag : mag;
  }
  bool operator==(const Fraction& other) const noexcept {
    return (*this <=> other) == 0;
  }

  /// The value in lowest terms (one GCD).
  Rational to_rational() const { return Rational::from_parts(num, den); }
};

namespace detail {

/// The overflow branch of `Fraction` subtraction, out of line: the
/// reduced `Rational` difference (throws goc::OverflowError when that
/// overflows too).
Fraction subtract_overflowed(const Fraction& a, const Fraction& b);

}  // namespace detail

/// Exact a − b, unreduced: (a.num·b.den − b.num·a.den) / (a.den·b.den)
/// from checked raw 128-bit products. When one overflows it falls back to
/// subtracting the reduced `Rational` values, so it throws exactly when
/// `a.to_rational() - b.to_rational()` does.
inline Fraction operator-(const Fraction& a, const Fraction& b) {
  i128 lhs;
  i128 rhs;
  Fraction out;
  if (!mul_overflow(a.num, b.den, &lhs) && !mul_overflow(b.num, a.den, &rhs) &&
      !__builtin_sub_overflow(lhs, rhs, &out.num) &&
      !mul_overflow(a.den, b.den, &out.den)) [[likely]] {
    return out;
  }
  return detail::subtract_overflowed(a, b);
}

/// Scales `values` to integers by their common denominator
/// L = lcm(den(values)): `scaled[i] = values[i]·L` and `scale = L`.
/// `scaled` is resized, so a presized vector is refilled without
/// allocating. Returns false, leaving both unspecified, when L or a scaled
/// value overflows i128.
bool scale_to_integers(const std::vector<Rational>& values,
                       std::vector<i128>& scaled, i128& scale);

}  // namespace goc

template <>
struct std::hash<goc::Rational> {
  std::size_t operator()(const goc::Rational& r) const noexcept {
    return r.hash();
  }
};
