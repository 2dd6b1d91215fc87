#include "util/rational.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>

#include "core/move_compare.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"
#include "util/xrational.hpp"

namespace goc {
namespace {

TEST(Rational, DefaultIsZero) {
  Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.to_string(), "0");
  EXPECT_EQ(r.denominator(), 1);
}

TEST(Rational, IntegerConstruction) {
  Rational r(7);
  EXPECT_TRUE(r.is_integer());
  EXPECT_EQ(r.to_string(), "7");
  EXPECT_EQ(Rational(-3).to_string(), "-3");
}

TEST(Rational, NormalizesSignAndGcd) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, 4), Rational(1, -2));
  EXPECT_EQ(Rational(-2, -4), Rational(1, 2));
  EXPECT_EQ(Rational(6, -3).to_string(), "-2");
  EXPECT_GT(Rational(1, 2).denominator(), 0);
  EXPECT_GT(Rational(1, -2).denominator(), 0);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
  EXPECT_THROW(Rational::from_parts(5, 0), std::invalid_argument);
}

TEST(Rational, ZeroNumeratorCanonical) {
  EXPECT_EQ(Rational(0, 17), Rational(0));
  EXPECT_EQ(Rational(0, -5).denominator(), 1);
}

TEST(Rational, Addition) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) + Rational(-1, 2), Rational(0));
  EXPECT_EQ(Rational(2, 3) + Rational(1, 3), Rational(1));
}

TEST(Rational, Subtraction) {
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(1, 3) - Rational(1, 2), Rational(-1, 6));
}

TEST(Rational, Multiplication) {
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, 3) * Rational(3, 2), Rational(-1));
  EXPECT_EQ(Rational(0) * Rational(7, 9), Rational(0));
}

TEST(Rational, Division) {
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_THROW(Rational(1) / Rational(0), std::domain_error);
}

TEST(Rational, ReciprocalAndAbs) {
  EXPECT_EQ(Rational(2, 3).reciprocal(), Rational(3, 2));
  EXPECT_EQ(Rational(-2, 3).reciprocal(), Rational(-3, 2));
  EXPECT_THROW(Rational(0).reciprocal(), std::domain_error);
  EXPECT_EQ(Rational(-5, 7).abs(), Rational(5, 7));
}

TEST(Rational, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(2, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_LT(Rational(-1), Rational(0));
  EXPECT_LT(Rational(0), Rational(1, 1000000));
  EXPECT_EQ(Rational(3, 9) <=> Rational(1, 3), std::strong_ordering::equal);
}

TEST(Rational, ComparisonSurvivesHugeCrossProducts) {
  // Cross products of these exceed 128 bits; the continued-fraction path
  // must take over and still give the exact answer.
  const Rational a = Rational::from_parts(
      (static_cast<i128>(1) << 100) + 1, (static_cast<i128>(1) << 99) + 7);
  const Rational b = Rational::from_parts(
      (static_cast<i128>(1) << 100) + 3, (static_cast<i128>(1) << 99) + 5);
  EXPECT_NE(a, b);
  // a ≈ 2, b ≈ 2; exact order: a < b iff a_num·b_den < b_num·a_den.
  // Verify consistency: exactly one of <, > holds and it is antisymmetric.
  const bool lt = a < b;
  const bool gt = b < a;
  EXPECT_NE(lt, gt);
}

TEST(Rational, AdditionOverflowThrows) {
  const Rational big = Rational::from_parts((static_cast<i128>(1) << 126), 1);
  EXPECT_THROW(big + big, OverflowError);
}

TEST(Rational, MultiplicationOverflowThrows) {
  const Rational big = Rational::from_parts((static_cast<i128>(1) << 100), 1);
  EXPECT_THROW(big * big, OverflowError);
}

TEST(Rational, MultiplicationReducesBeforeOverflow) {
  // (2^100/3) * (3/2^100) = 1 must not overflow thanks to cross-reduction.
  const Rational a = Rational::from_parts(static_cast<i128>(1) << 100, 3);
  const Rational b = Rational::from_parts(3, static_cast<i128>(1) << 100);
  EXPECT_EQ(a * b, Rational(1));
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-3, 4).to_double(), -0.75);
  EXPECT_NEAR(Rational(1, 3).to_double(), 1.0 / 3.0, 1e-15);
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(22, 7).to_string(), "22/7");
  EXPECT_EQ(Rational(-22, 7).to_string(), "-22/7");
  EXPECT_EQ(Rational(4, 2).to_string(), "2");
}

TEST(Rational, FromDoubleExactDyadics) {
  EXPECT_EQ(Rational::from_double(0.5, 1000), Rational(1, 2));
  EXPECT_EQ(Rational::from_double(0.25, 1000), Rational(1, 4));
  EXPECT_EQ(Rational::from_double(-1.5, 1000), Rational(-3, 2));
  EXPECT_EQ(Rational::from_double(3.0, 10), Rational(3));
  EXPECT_EQ(Rational::from_double(0.0, 10), Rational(0));
}

TEST(Rational, FromDoubleBestApproximation) {
  // π with denominator ≤ 10 is 22/7; ≤ 150 is 355/113's predecessor 311/99?
  // The classic: 355/113 needs ≤ 113.
  EXPECT_EQ(Rational::from_double(3.14159265358979, 10), Rational(22, 7));
  EXPECT_EQ(Rational::from_double(3.14159265358979, 113), Rational(355, 113));
  EXPECT_EQ(Rational::from_double(1.0 / 3.0, 100), Rational(1, 3));
}

TEST(Rational, FromDoubleRespectsDenominatorBound) {
  for (const double v : {0.123456789, 2.718281828, 1e-4, 123.456}) {
    const Rational r = Rational::from_double(v, 1000);
    EXPECT_LE(r.denominator(), 1000);
    EXPECT_NEAR(r.to_double(), v, 1e-3);
  }
}

TEST(Rational, FromDoubleRejectsBadInput) {
  EXPECT_THROW(Rational::from_double(std::numeric_limits<double>::infinity(), 10),
               std::invalid_argument);
  EXPECT_THROW(Rational::from_double(std::nan(""), 10), std::invalid_argument);
  EXPECT_THROW(Rational::from_double(0.5, 0), std::invalid_argument);
}

TEST(Rational, HashConsistentWithEquality) {
  EXPECT_EQ(Rational(2, 4).hash(), Rational(1, 2).hash());
  std::unordered_set<Rational> set;
  set.insert(Rational(1, 2));
  set.insert(Rational(2, 4));
  set.insert(Rational(1, 3));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Rational, CompoundAssignment) {
  Rational r(1, 2);
  r += Rational(1, 3);
  r -= Rational(1, 6);
  r *= Rational(3);
  r /= Rational(2);
  EXPECT_EQ(r, Rational(1));
}

TEST(Rational, SmallOperandFastPathMatchesGeneralPath) {
  // Operands straddling the 2^31 fast-path boundary: the fast path (no GCD
  // pre-reduction) and the general path must agree exactly. Ground truth is
  // the textbook formula evaluated in i128 via from_parts.
  const std::int64_t boundary = std::int64_t{1} << 31;
  const std::int64_t probes[] = {1,           3,          boundary - 2,
                                 boundary - 1, boundary,  boundary + 1,
                                 2 * boundary, (std::int64_t{1} << 40) + 7};
  for (const std::int64_t an : probes) {
    for (const std::int64_t ad : probes) {
      const Rational a(an, ad);
      const Rational b(ad + 1, an);
      const Rational expected_sum = Rational::from_parts(
          static_cast<i128>(a.numerator()) * b.denominator() +
              static_cast<i128>(b.numerator()) * a.denominator(),
          static_cast<i128>(a.denominator()) * b.denominator());
      EXPECT_EQ(a + b, expected_sum) << an << "/" << ad;
      const Rational expected_prod = Rational::from_parts(
          static_cast<i128>(a.numerator()) * b.numerator(),
          static_cast<i128>(a.denominator()) * b.denominator());
      EXPECT_EQ(a * b, expected_prod) << an << "/" << ad;
    }
  }
}

TEST(Rational, SmallOperandFastPathNegativeAndZero) {
  const std::int64_t boundary = std::int64_t{1} << 31;
  // Largest-magnitude negative numerator that still takes the fast path.
  const Rational a(-(boundary - 1), boundary - 1);  // == -1
  EXPECT_EQ(a + a, Rational(-2));
  EXPECT_EQ(a * a, Rational(1));
  EXPECT_EQ(a + Rational(0), a);
  EXPECT_EQ(a * Rational(0), Rational(0));
  // Just past the boundary on one side only — mixed fast/general operands.
  const Rational big(boundary, 1);
  EXPECT_EQ(a + big, Rational(boundary - 1));
  EXPECT_EQ(a * big, Rational(-boundary));
}

TEST(Rational, SumOfManySmallFractionsStaysExact) {
  // Σ_{i=1..50} 1/i — the harmonic sum H_50 as an exact fraction.
  Rational sum(0);
  for (std::int64_t i = 1; i <= 50; ++i) sum += Rational(1, i);
  EXPECT_NEAR(sum.to_double(), 4.4992053383, 1e-9);
  // Exactness probe: (sum − 1/2) + 1/2 == sum.
  EXPECT_EQ((sum - Rational(1, 2)) + Rational(1, 2), sum);
}

// ------------------------------------------- comparison differential
// `compare_fractions` (behind `operator<=>` and `compare_positive_fractions`)
// against an oracle that never needs a fallback: the cross products
// computed exactly on 256 bits.

/// 256-bit unsigned value; the defaulted <=> is lexicographic on
/// (high, low), which is numeric order.
struct U256 {
  u128 high;
  u128 low;
  auto operator<=>(const U256&) const = default;
};

/// Full 128 x 128 -> 256-bit product from four 64 x 64 partial products.
U256 wide_mul(u128 x, u128 y) {
  const u128 mask = ~std::uint64_t{0};
  const u128 x0 = x & mask;
  const u128 x1 = x >> 64;
  const u128 y0 = y & mask;
  const u128 y1 = y >> 64;
  const u128 p00 = x0 * y0;
  const u128 p01 = x0 * y1;
  const u128 p10 = x1 * y0;
  const u128 mid = (p00 >> 64) + (p01 & mask) + (p10 & mask);
  return U256{x1 * y1 + (p01 >> 64) + (p10 >> 64) + (mid >> 64),
              (p00 & mask) | (mid << 64)};
}

std::strong_ordering oracle_compare(u128 a_num, u128 a_den, u128 b_num,
                                    u128 b_den) {
  return wide_mul(a_num, b_den) <=> wide_mul(b_num, a_den);
}

std::strong_ordering oracle_compare(const Rational& a, const Rational& b) {
  const int sa = a.is_negative() ? -1 : (a.is_positive() ? 1 : 0);
  const int sb = b.is_negative() ? -1 : (b.is_positive() ? 1 : 0);
  if (sa != sb) return sa <=> sb;
  const std::strong_ordering mag = oracle_compare(
      uabs128(a.numerator()), static_cast<u128>(a.denominator()),
      uabs128(b.numerator()), static_cast<u128>(b.denominator()));
  return sa < 0 ? 0 <=> mag : mag;
}

/// A uniformly random value of exactly `bits` bits (1 <= bits <= 127).
i128 random_bits(Rng& rng, unsigned bits) {
  const u128 raw = (static_cast<u128>(rng.next()) << 64) | rng.next();
  const u128 top = static_cast<u128>(1) << (bits - 1);
  return static_cast<i128>((raw >> (128 - bits)) | top);
}

std::uint64_t counter_total(const char* name) {
  return obs::Registry::instance().counter(name).total();
}

void expect_matches_oracle(const Rational& a, const Rational& b) {
  EXPECT_EQ(a <=> b, oracle_compare(a, b)) << a << " vs " << b;
  EXPECT_EQ(b <=> a, oracle_compare(b, a)) << b << " vs " << a;
}

TEST(Rational, ComparisonMatchesWideProductOracle) {
  Rng rng(0xc0ffee);
  const auto random_rational = [&](unsigned num_bits, unsigned den_bits) {
    const i128 num = random_bits(rng, num_bits);
    return Rational::from_parts(rng.next_below(2) == 0 ? num : -num,
                                random_bits(rng, den_bits));
  };
  const auto random_width = [&] {  // magnitudes from 2^30 to 2^126
    return 31 + static_cast<unsigned>(rng.next_below(97));
  };

  // Mixed widths and signs; the wide ones overflow the raw products.
  for (int i = 0; i < 4000; ++i) {
    const Rational a = random_rational(random_width(), random_width());
    const Rational b = random_rational(random_width(), random_width());
    expect_matches_oracle(a, b);
    EXPECT_EQ(a <=> a, std::strong_ordering::equal);
    // Neighbours that differ in the last unit of both parts.
    const Rational c = Rational::from_parts(a.numerator() + 1,
                                            a.denominator() + 1);
    expect_matches_oracle(a, c);
  }

  // Raw products overflow but the GCD-reduced ones fit: numerators share
  // 2^70, denominators are odd 62-bit values (so the Rationals stay
  // normalized), and a_num·b_den >= 2^70·2^61 > 2^128.
  const std::uint64_t reduced_before = counter_total("arith.compare.reduced");
  const std::uint64_t cf_before = counter_total("arith.compare.cf");
  constexpr int kReducedPairs = 2000;
  for (int i = 0; i < kReducedPairs; ++i) {
    const i128 shared = static_cast<i128>(1) << 70;
    const i128 x = random_bits(rng, 20) | 1;
    const i128 y = random_bits(rng, 20) | 1;
    const Rational a =
        Rational::from_parts(shared * x, random_bits(rng, 62) | 1);
    const Rational b = Rational::from_parts(
        i % 2 == 0 ? shared * y : -shared * y, random_bits(rng, 62) | 1);
    expect_matches_oracle(a, b);
    expect_matches_oracle(-a, -b);
  }
  if (obs::enabled()) {
    EXPECT_GE(counter_total("arith.compare.reduced") - reduced_before,
              static_cast<std::uint64_t>(kReducedPairs));
    EXPECT_EQ(counter_total("arith.compare.cf"), cf_before);
  }

  // Reduced products still overflow: the continued-fraction walk decides.
  for (int i = 0; i < 2000; ++i) {
    const unsigned bits = 100 + static_cast<unsigned>(rng.next_below(28));
    const Rational a = random_rational(bits, bits);
    const Rational b = random_rational(bits, bits);
    expect_matches_oracle(a, b);
    expect_matches_oracle(a, -b);
  }
  if (obs::enabled()) {
    EXPECT_GT(counter_total("arith.compare.cf"), cf_before);
  }
}

TEST(Rational, PositiveFractionComparisonSurvivesI128Overflow) {
  const i128 two63 = static_cast<i128>(1) << 63;
  const i128 two100 = static_cast<i128>(1) << 100;
  // Products in [2^127, 2^128): overflow i128, fit u128.
  const std::pair<i128, i128> wide[] = {{two63 + 5, two63 + 3},
                                        {two63 + 4, two63 + 2},
                                        {two63 * 2 - 1, two63 + 1},
                                        {two63 * 2 - 3, two63 - 1}};
  for (const auto& [an, ad] : wide) {
    for (const auto& [bn, bd] : wide) {
      EXPECT_EQ(compare_positive_fractions(an, ad, bn, bd),
                oracle_compare(an, ad, bn, bd));
      EXPECT_EQ(compare_positive_fractions(an, bd, bn, ad),
                oracle_compare(an, bd, bn, ad));
    }
  }
  // Products past 2^128 that the GCD reduction brings back: 3·2^100/7 vs
  // 2^100/(2^40 + 1) is 3/7 vs 1/(2^40 + 1).
  EXPECT_EQ(compare_positive_fractions(3 * two100, 7, two100,
                                       (static_cast<i128>(1) << 40) + 1),
            std::strong_ordering::greater);
  // Unreduced equal values whose reduced products still overflow, so the
  // continued-fraction walk must report equality: k·x/(k·y) vs m·x/(m·y).
  const i128 k = (static_cast<i128>(1) << 65) + 1;
  const i128 m = (static_cast<i128>(1) << 65) + 3;
  const i128 x = (static_cast<i128>(1) << 60) + 7;
  const i128 y = (static_cast<i128>(1) << 60) + 9;
  EXPECT_EQ(compare_positive_fractions(k * x, k * y, m * x, m * y),
            std::strong_ordering::equal);
  EXPECT_EQ(compare_positive_fractions(k * x, k * y, m * x + 1, m * y),
            std::strong_ordering::less);
  // A zero numerator against an overflowing cross product.
  EXPECT_EQ(compare_positive_fractions(0, two100, two100, 1),
            std::strong_ordering::less);
  EXPECT_EQ(compare_positive_fractions(two100, 1, 0, two100),
            std::strong_ordering::greater);
}

// ------------------------------------------------- canonical products
// `a * b` and `a / b` must land on the unique normalized Rational of the
// raw product, whichever branch of `operator*` computes it.

void expect_canonical(const Rational& r) {
  EXPECT_GT(r.denominator(), 0) << r;
  if (r.is_zero()) {
    EXPECT_EQ(r.denominator(), 1);
  } else {
    EXPECT_TRUE(gcd128(uabs128(r.numerator()),
                       static_cast<u128>(r.denominator())) == 1)
        << r;
  }
}

/// Checks `x * y == from_parts(xn·yn, xd·yd)` and `x / y` likewise when
/// the raw products fit in i128; returns how many products were checked.
int expect_products_canonical(const Rational& x, const Rational& y) {
  int checked = 0;
  i128 num;
  i128 den;
  if (!__builtin_mul_overflow(x.numerator(), y.numerator(), &num) &&
      !__builtin_mul_overflow(x.denominator(), y.denominator(), &den)) {
    const Rational product = x * y;
    EXPECT_EQ(product, Rational::from_parts(num, den)) << x << " * " << y;
    expect_canonical(product);
    ++checked;
  }
  if (!y.is_zero() &&
      !__builtin_mul_overflow(x.numerator(), y.denominator(), &num) &&
      !__builtin_mul_overflow(x.denominator(), y.numerator(), &den)) {
    const Rational quotient = x / y;
    EXPECT_EQ(quotient, Rational::from_parts(num, den)) << x << " / " << y;
    expect_canonical(quotient);
    ++checked;
  }
  return checked;
}

TEST(Rational, ProductsAreCanonical) {
  Rng rng(0x9a7e);
  // Parts of `bits` bits times a shared factor, so the cross GCDs of the
  // large-operand branch are usually nontrivial.
  const auto random_pair = [&](unsigned bits, i128 shared_num,
                               i128 shared_den, bool negative) {
    const i128 num = random_bits(rng, bits) * shared_num;
    return Rational::from_parts(negative ? -num : num,
                                random_bits(rng, bits) * shared_den);
  };
  const auto factor = [&] {
    return random_bits(rng, 1 + static_cast<unsigned>(rng.next_below(20)));
  };

  int checked = 0;
  for (int i = 0; i < 3000; ++i) {
    const i128 f = factor();
    const i128 g = factor();
    const bool neg_x = rng.next_below(2) == 0;
    const bool neg_y = rng.next_below(2) == 0;
    // Both operands below 2^31 (the small-operand branch).
    const unsigned small = 1 + static_cast<unsigned>(rng.next_below(10));
    checked += expect_products_canonical(
        random_pair(small, f, g, neg_x), random_pair(small, g, f, neg_y));
    // One operand at or above 2^31, on either side.
    const unsigned wide = 32 + static_cast<unsigned>(rng.next_below(10));
    const Rational big = random_pair(wide, f, g, neg_x);
    const Rational little = random_pair(small, g, f, neg_y);
    checked += expect_products_canonical(big, little);
    checked += expect_products_canonical(little, big);
    // Both operands at or above 2^31.
    checked += expect_products_canonical(big, random_pair(wide, g, f, neg_y));
    // Integer × reciprocal, the payoff shape m_p·F(c)/mass.
    const Rational power = Rational::from_parts(random_bits(rng, wide) * f, 1);
    const Rational mass =
        Rational::from_parts(random_bits(rng, wide) * f, random_bits(rng, 3));
    checked += expect_products_canonical(power, mass.reciprocal());
    checked += expect_products_canonical(power, mass);
    // A zero operand on either side.
    checked += expect_products_canonical(Rational(0), big);
    checked += expect_products_canonical(big, Rational(0));
    checked += expect_products_canonical(Rational(0), little);
  }
  EXPECT_GT(checked, 20000);
  EXPECT_EQ(Rational(0), Rational::from_parts(0, 1));
  EXPECT_EQ(Rational(0).denominator(), 1);
}

// ------------------------------------------------------ unreduced fractions

TEST(Fraction, ComparesByValueAcrossUnreducedForms) {
  const Fraction half{1, 2};
  const Fraction two_quarters{2, 4};
  EXPECT_TRUE(half == two_quarters);
  EXPECT_EQ(half <=> two_quarters, std::strong_ordering::equal);
  EXPECT_EQ(half.to_rational(), two_quarters.to_rational());
  EXPECT_EQ(two_quarters.to_rational(), Rational(1, 2));
  EXPECT_LT((Fraction{2, 4}), (Fraction{3, 5}));
  EXPECT_GT((Fraction{0, 7}), (Fraction{-1, 9}));
  EXPECT_TRUE((Fraction{0, 7}) == (Fraction{0, 1}));

  // Random values, each in two random unreduced forms (scaled by k and by
  // m): Fraction order and equality must be the Rational order.
  Rng rng(0xf4ac);
  for (int i = 0; i < 4000; ++i) {
    const unsigned bits = 1 + static_cast<unsigned>(rng.next_below(40));
    const i128 an =
        random_bits(rng, bits) - (i % 3 == 0 ? random_bits(rng, bits) : 0);
    const i128 ad = random_bits(rng, bits);
    const i128 bn = i % 5 == 0 ? an : random_bits(rng, bits);
    const i128 bd = i % 5 == 0 ? ad : random_bits(rng, bits);
    const i128 k =
        random_bits(rng, 1 + static_cast<unsigned>(rng.next_below(40)));
    const i128 m =
        random_bits(rng, 1 + static_cast<unsigned>(rng.next_below(40)));
    const Rational a = Rational::from_parts(an, ad);
    const Rational b = Rational::from_parts(bn, bd);
    const Fraction a_k{an * k, ad * k};
    const Fraction a_m{an * m, ad * m};
    const Fraction b_m{bn * m, bd * m};
    for (const auto& [x, y] : {std::pair{a_k, b_m}, std::pair{a_m, a_k}}) {
      const Rational rx = x.to_rational();
      const Rational ry = y.to_rational();
      EXPECT_EQ(x <=> y, rx <=> ry) << rx << " vs " << ry;
      EXPECT_EQ(x == y, rx == ry) << rx << " vs " << ry;
    }
    EXPECT_EQ(a_k.to_rational(), a);
    EXPECT_EQ(b_m <=> a_k, b <=> a);
  }
}

TEST(Fraction, DifferenceIsExactAndReducesOnlyOnRequest) {
  // Raw products fit: the difference stays unreduced.
  const Fraction d = Fraction{5, 5} - Fraction{2, 3};
  EXPECT_EQ(d.num, 5);
  EXPECT_EQ(d.den, 15);
  EXPECT_EQ(d.to_rational(), Rational(1, 3));
  EXPECT_EQ((Fraction{1, 4} - Fraction{3, 4}).to_rational(), Rational(-1, 2));

  Rng rng(0xd1ff);
  for (int i = 0; i < 4000; ++i) {
    const unsigned bits = 1 + static_cast<unsigned>(rng.next_below(60));
    const Fraction a{random_bits(rng, bits), random_bits(rng, bits)};
    const Fraction b{random_bits(rng, bits), random_bits(rng, bits)};
    EXPECT_EQ((a - b).to_rational(), a.to_rational() - b.to_rational());
  }

  // A raw product overflows but the reduced values subtract: 2^100/(3·2^40)
  // − 2^90/2^40 = (2^60 − 3·2^50)/3.
  const i128 two40 = static_cast<i128>(1) << 40;
  const Fraction big{static_cast<i128>(1) << 100, 3 * two40};
  const Fraction other{static_cast<i128>(1) << 90, two40};
  const i128 two50 = static_cast<i128>(1) << 50;
  const Rational expected = Rational::from_parts(1024 * two50 - 3 * two50, 3);
  EXPECT_EQ((big - other).to_rational(), expected);
  EXPECT_EQ((big - other).to_rational(),
            big.to_rational() - other.to_rational());

  // Neither form fits: the reduced subtraction throws, and so does the
  // Fraction difference.
  const i128 two63 = static_cast<i128>(1) << 63;
  const Fraction wide{(two63 - 1) * (two63 - 25), two63 + 1};
  const Fraction wide2{(two63 - 7) * (two63 - 3), two63 + 5};
  EXPECT_THROW(wide.to_rational() - wide2.to_rational(), OverflowError);
  EXPECT_THROW(wide - wide2, OverflowError);
}

TEST(XRational, InfinityOrdering) {
  const XRational inf = XRational::infinity();
  EXPECT_TRUE(inf.is_infinite());
  EXPECT_GT(inf, XRational(Rational(1000000)));
  EXPECT_EQ(inf <=> XRational::infinity(), std::strong_ordering::equal);
  EXPECT_LT(XRational(Rational(3)), inf);
}

TEST(XRational, FiniteBehavesLikeRational) {
  const XRational a{Rational(1, 2)};
  const XRational b{Rational(2, 3)};
  EXPECT_LT(a, b);
  EXPECT_EQ(a.finite_value(), Rational(1, 2));
  EXPECT_EQ(a.to_string(), "1/2");
  EXPECT_EQ(XRational::infinity().to_string(), "inf");
}

TEST(XRational, FiniteValueOnInfinityThrows) {
  EXPECT_THROW(XRational::infinity().finite_value(), InvariantError);
}

TEST(XRational, ToDouble) {
  EXPECT_TRUE(std::isinf(XRational::infinity().to_double()));
  EXPECT_DOUBLE_EQ(XRational(Rational(3, 4)).to_double(), 0.75);
}

}  // namespace
}  // namespace goc
