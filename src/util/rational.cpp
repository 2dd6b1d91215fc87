#include "util/rational.hpp"

#include <cmath>
#include <limits>
#include <ostream>

#include "obs/registry.hpp"

namespace goc {
namespace {

/// Compares a/b with c/d for nonnegative a, c and positive b, d, without
/// overflow: walks the continued-fraction expansions of both fractions in
/// lock-step (Euclid's algorithm), comparing integer parts; the comparison
/// direction flips on every reciprocal step.
std::strong_ordering compare_cf(u128 a, u128 b, u128 c, u128 d) noexcept {
  bool flipped = false;
  for (;;) {
    const u128 q1 = a / b;
    const u128 q2 = c / d;
    if (q1 != q2) {
      const auto ord =
          q1 < q2 ? std::strong_ordering::less : std::strong_ordering::greater;
      return flipped ? (ord == std::strong_ordering::less
                            ? std::strong_ordering::greater
                            : std::strong_ordering::less)
                     : ord;
    }
    const u128 r1 = a % b;
    const u128 r2 = c % d;
    if (r1 == 0 && r2 == 0) return std::strong_ordering::equal;
    if (r1 == 0) return flipped ? std::strong_ordering::greater
                                : std::strong_ordering::less;
    if (r2 == 0) return flipped ? std::strong_ordering::less
                                : std::strong_ordering::greater;
    // a/b <=> c/d  ==  r1/b <=> r2/d  ==  (d/r2 <=> b/r1) after reciprocal.
    a = b;
    b = r1;
    c = d;
    d = r2;
    flipped = !flipped;
  }
}

/// Small-operand predicate for the arithmetic fast paths: when every
/// numerator and denominator of both operands fits in 32 bits, each cross
/// product fits in 62 bits and a sum of two fits in 63, so no intermediate
/// can overflow and the GCD pre-reduction (two 128-bit GCDs per `+`/`*`)
/// is pure overhead — the single reduction in `normalize()` suffices.
constexpr i128 kSmallOperand = static_cast<i128>(1) << 31;

constexpr bool small_operand(i128 num, i128 den) noexcept {
  return num > -kSmallOperand && num < kSmallOperand && den < kSmallOperand;
}

}  // namespace

Rational::Rational(std::int64_t numerator, std::int64_t denominator)
    : num_(numerator), den_(denominator) {
  GOC_CHECK_ARG(denominator != 0, "Rational denominator must be nonzero");
  normalize();
}

Rational::Rational(i128 num, i128 den, bool already_normalized)
    : num_(num), den_(den) {
  if (!already_normalized) normalize();
}

Rational Rational::from_parts(i128 numerator, i128 denominator) {
  GOC_CHECK_ARG(denominator != 0, "Rational denominator must be nonzero");
  return Rational(numerator, denominator, /*already_normalized=*/false);
}

void Rational::normalize() {
  GOC_ASSERT(den_ != 0, "denormalized Rational with zero denominator");
  if (den_ < 0) {
    GOC_CHECK_ARG(den_ != kI128Min && num_ != kI128Min,
                  "Rational magnitude out of range");
    num_ = -num_;
    den_ = -den_;
  }
  if (num_ == 0) {
    den_ = 1;
    return;
  }
  const u128 g = gcd128(uabs128(num_), static_cast<u128>(den_));
  if (g > 1) {
    // Divide magnitudes; safe because g divides both exactly.
    const bool neg = num_ < 0;
    const u128 n = uabs128(num_) / g;
    num_ = neg ? -static_cast<i128>(n) : static_cast<i128>(n);
    den_ = static_cast<i128>(static_cast<u128>(den_) / g);
  }
}

namespace detail {

std::strong_ordering compare_fractions_overflowed(u128 a_num, u128 a_den,
                                                  u128 b_num,
                                                  u128 b_den) noexcept {
  static obs::Counter& kReduced =
      obs::Registry::instance().counter("arith.compare.reduced");
  static obs::Counter& kContinuedFraction =
      obs::Registry::instance().counter("arith.compare.cf");
  kReduced.add();
  // A zero numerator never overflows a product, so at most one of a_num,
  // b_num is zero here and neither GCD is zero.
  const u128 g_num = gcd128(a_num, b_num);
  const u128 g_den = gcd128(a_den, b_den);
  a_num /= g_num;
  b_num /= g_num;
  a_den /= g_den;
  b_den /= g_den;
  u128 lhs;
  u128 rhs;
  if (!__builtin_mul_overflow(a_num, b_den, &lhs) &&
      !__builtin_mul_overflow(b_num, a_den, &rhs)) {
    return lhs <=> rhs;
  }
  kContinuedFraction.add();
  return compare_cf(a_num, a_den, b_num, b_den);
}

Fraction subtract_overflowed(const Fraction& a, const Fraction& b) {
  const Rational difference = a.to_rational() - b.to_rational();
  return Fraction{difference.numerator(), difference.denominator()};
}

}  // namespace detail

bool scale_to_integers(const std::vector<Rational>& values,
                       std::vector<i128>& scaled, i128& scale) {
  scale = 1;
  for (const Rational& v : values) {
    const i128 q = v.denominator();
    const i128 g = static_cast<i128>(gcd128(uabs128(scale), uabs128(q)));
    if (mul_overflow(scale / g, q, &scale)) return false;
  }
  scaled.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (mul_overflow(values[i].numerator(), scale / values[i].denominator(),
                     &scaled[i])) {
      return false;
    }
  }
  return true;
}

std::strong_ordering Rational::operator<=>(const Rational& other) const noexcept {
  return Fraction{num_, den_} <=> Fraction{other.num_, other.den_};
}

Rational Rational::operator-() const noexcept {
  Rational r = *this;
  r.num_ = -r.num_;
  return r;
}

Rational Rational::operator+(const Rational& other) const {
  if (den_ == 1 && other.den_ == 1) {
    // Integer ⊕ integer — already normalized, no GCD at all. This is the
    // per-move mass update of every integer-power game.
    return Rational(checked_add(num_, other.num_), 1, /*already_normalized=*/true);
  }
  if (small_operand(num_, den_) && small_operand(other.num_, other.den_)) {
    return Rational(num_ * other.den_ + other.num_ * den_, den_ * other.den_,
                    /*already_normalized=*/false);
  }
  // a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)) with g = gcd(b, d).
  const u128 g = gcd128(static_cast<u128>(den_), static_cast<u128>(other.den_));
  const i128 d_over_g = static_cast<i128>(static_cast<u128>(other.den_) / g);
  const i128 b_over_g = static_cast<i128>(static_cast<u128>(den_) / g);
  const i128 num =
      checked_add(checked_mul(num_, d_over_g), checked_mul(other.num_, b_over_g));
  const i128 den = checked_mul(den_, d_over_g);
  return Rational(num, den, /*already_normalized=*/false);
}

Rational Rational::operator-(const Rational& other) const {
  return *this + (-other);
}

Rational Rational::operator*(const Rational& other) const {
  if (den_ == 1 && other.den_ == 1) {
    return Rational(checked_mul(num_, other.num_), 1, /*already_normalized=*/true);
  }
  if (small_operand(num_, den_) && small_operand(other.num_, other.den_)) {
    return Rational(num_ * other.num_, den_ * other.den_,
                    /*already_normalized=*/false);
  }
  // Reduce cross factors before multiplying to delay overflow. Then
  // gcd(a, d) = gcd(c, b) = 1 on top of the operands' own gcd(a, b) =
  // gcd(c, d) = 1, so (a·c)/(b·d) is in lowest terms (zero comes out 0/1).
  const u128 g1 = gcd128(uabs128(num_), static_cast<u128>(other.den_));
  const u128 g2 = gcd128(uabs128(other.num_), static_cast<u128>(den_));
  const i128 a = num_ / static_cast<i128>(g1);
  const i128 d = other.den_ / static_cast<i128>(g1);
  const i128 c = other.num_ / static_cast<i128>(g2);
  const i128 b = den_ / static_cast<i128>(g2);
  return Rational(checked_mul(a, c), checked_mul(b, d),
                  /*already_normalized=*/true);
}

Rational Rational::operator/(const Rational& other) const {
  if (other.num_ == 0) throw std::domain_error("Rational division by zero");
  return *this * other.reciprocal();
}

Rational Rational::abs() const noexcept {
  Rational r = *this;
  if (r.num_ < 0) r.num_ = -r.num_;
  return r;
}

Rational Rational::reciprocal() const {
  if (num_ == 0) throw std::domain_error("Rational reciprocal of zero");
  Rational r;
  if (num_ < 0) {
    r.num_ = -den_;
    r.den_ = -num_;
  } else {
    r.num_ = den_;
    r.den_ = num_;
  }
  return r;
}

double Rational::to_double() const noexcept {
  return static_cast<double>(static_cast<long double>(num_) /
                             static_cast<long double>(den_));
}

std::string Rational::to_string() const {
  if (den_ == 1) return goc::to_string(num_);
  return goc::to_string(num_) + "/" + goc::to_string(den_);
}

std::size_t Rational::hash() const noexcept {
  const auto mix = [](std::size_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  };
  std::size_t h = 0;
  h = mix(h, static_cast<std::uint64_t>(static_cast<u128>(num_)));
  h = mix(h, static_cast<std::uint64_t>(static_cast<u128>(num_) >> 64));
  h = mix(h, static_cast<std::uint64_t>(static_cast<u128>(den_)));
  h = mix(h, static_cast<std::uint64_t>(static_cast<u128>(den_) >> 64));
  return h;
}

Rational Rational::from_double(double value, std::uint64_t max_denominator) {
  GOC_CHECK_ARG(std::isfinite(value), "from_double requires a finite value");
  GOC_CHECK_ARG(max_denominator > 0, "max_denominator must be positive");
  const bool negative = value < 0;
  double x = negative ? -value : value;

  // Continued-fraction walk maintaining convergents p/q; when the next
  // convergent's denominator would exceed the bound, take the best
  // semiconvergent instead.
  std::uint64_t p0 = 0, q0 = 1;  // previous convergent
  std::uint64_t p1 = 1, q1 = 0;  // current convergent
  double frac = x;
  for (int iter = 0; iter < 64; ++iter) {
    const double fa = std::floor(frac);
    if (fa > static_cast<double>(std::numeric_limits<std::int64_t>::max())) break;
    const std::uint64_t a = static_cast<std::uint64_t>(fa);
    // q2 = a*q1 + q0; stop if it exceeds the denominator bound.
    if (q1 != 0 && a > (max_denominator - q0) / q1) {
      const std::uint64_t t = (max_denominator - q0) / q1;  // largest valid step
      const std::uint64_t ps = t * p1 + p0;
      const std::uint64_t qs = t * q1 + q0;
      // Choose between the semiconvergent ps/qs and the last convergent
      // p1/q1, whichever is closer to x (ties to the smaller denominator).
      const double err_semi =
          std::fabs(x - static_cast<double>(ps) / static_cast<double>(qs));
      const double err_conv =
          std::fabs(x - static_cast<double>(p1) / static_cast<double>(q1));
      std::uint64_t bp = p1, bq = q1;
      if (qs <= max_denominator && err_semi < err_conv) {
        bp = ps;
        bq = qs;
      }
      return Rational(negative ? -static_cast<i128>(bp) : static_cast<i128>(bp),
                      static_cast<i128>(bq), /*already_normalized=*/false);
    }
    const std::uint64_t p2 = a * p1 + p0;
    const std::uint64_t q2 = a * q1 + q0;
    p0 = p1;
    q0 = q1;
    p1 = p2;
    q1 = q2;
    const double rem = frac - fa;
    if (rem < 1e-15 * (1.0 + fa)) break;  // exhausted double precision
    frac = 1.0 / rem;
  }
  GOC_ASSERT(q1 != 0, "continued-fraction walk produced no convergent");
  return Rational(negative ? -static_cast<i128>(p1) : static_cast<i128>(p1),
                  static_cast<i128>(q1), /*already_normalized=*/false);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.to_string();
}

}  // namespace goc
