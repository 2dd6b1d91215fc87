#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/int128.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace goc {
namespace {

// ---------------------------------------------------------------- assert

std::string check_arg_what(int trials, const char* message) {
  try {
    GOC_CHECK_ARG(trials >= 1, message);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "no throw";
}

TEST(CheckArg, CarriesTheMessageAloneOrElseTheCondition) {
  // A caller error is shown to the caller's user: no source location.
  EXPECT_EQ(check_arg_what(0, "trials must be at least 1"),
            "trials must be at least 1");
  EXPECT_EQ(check_arg_what(0, ""), "trials >= 1");
  EXPECT_EQ(check_arg_what(1, ""), "no throw");
}

// ---------------------------------------------------------------- int128

TEST(Int128, ToString) {
  EXPECT_EQ(to_string(static_cast<i128>(0)), "0");
  EXPECT_EQ(to_string(static_cast<i128>(-42)), "-42");
  i128 big = 1;
  for (int i = 0; i < 30; ++i) big *= 10;
  EXPECT_EQ(to_string(big), "1000000000000000000000000000000");
  EXPECT_EQ(to_string(kI128Min),
            "-170141183460469231731687303715884105728");
}

TEST(Int128, Gcd) {
  EXPECT_EQ(gcd128(0, 5), 5u);
  EXPECT_EQ(gcd128(5, 0), 5u);
  EXPECT_EQ(gcd128(12, 18), 6u);
  EXPECT_EQ(gcd128(17, 13), 1u);
  const u128 big = static_cast<u128>(1) << 100;
  EXPECT_EQ(gcd128(big, big >> 3), big >> 3);
}

/// Textbook Euclid: the reference the binary `gcd64` must agree with.
std::uint64_t euclid_gcd(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    const std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

TEST(Int128, Gcd64MatchesEuclidReference) {
  static_assert(gcd64(12, 18) == 6);
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs = {
      {0, 0}, {0, 1}, {1, 0}, {0, kMax}, {kMax, 0}, {1, 1}, {1, kMax},
      {kMax, kMax}, {kMax, kMax - 1}, {kMax, 3}, {kMax, 1ULL << 63},
      {12, 18}, {17, 13}, {1ULL << 63, 1ULL << 62}, {3ULL << 40, 5ULL << 41}};
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) pairs.emplace_back(1ULL << i, 1ULL << j);
    pairs.emplace_back(1ULL << i, kMax);
  }
  // Consecutive Fibonacci numbers: Euclid's worst case (every quotient 1).
  std::uint64_t f0 = 1;
  std::uint64_t f1 = 2;
  while (f1 > f0) {  // up to F(93), the last one below 2^64
    pairs.emplace_back(f0, f1);
    pairs.emplace_back(f1, f0);
    pairs.emplace_back(f1, f1);
    const std::uint64_t next = f0 + f1;
    f0 = f1;
    f1 = next;
  }
  // Seeded random pairs: full-width, mixed widths, and shared factors of
  // two and of a random odd value, so nontrivial GCDs are common.
  Rng rng(0x6cd64);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t a = rng.next() >> rng.next_below(64);
    std::uint64_t b = rng.next() >> rng.next_below(64);
    if (i % 3 == 1) {
      const unsigned shift = static_cast<unsigned>(rng.next_below(20));
      const std::uint64_t common = (rng.next() >> 44) | 1;
      a = ((a >> 40) * common) << shift;
      b = ((b >> 40) * common) << shift;
    }
    pairs.emplace_back(a, b);
  }
  for (const auto& [a, b] : pairs) {
    const std::uint64_t expected = euclid_gcd(a, b);
    ASSERT_EQ(gcd64(a, b), expected) << a << ", " << b;
    ASSERT_EQ(gcd128(a, b), static_cast<u128>(expected)) << a << ", " << b;
  }
}

TEST(Int128, CheckedOpsThrowOnOverflow) {
  EXPECT_THROW(checked_add(kI128Max, 1), OverflowError);
  EXPECT_THROW(checked_mul(kI128Max, 2), OverflowError);
  EXPECT_EQ(checked_add(1, 2), 3);
  EXPECT_EQ(checked_mul(static_cast<i128>(1) << 60, 4),
            static_cast<i128>(1) << 62);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInRangeAndCoversSupport) {
  Rng rng(7);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.next_below(5);
    ASSERT_LT(v, 5u);
    ++seen[v];
  }
  for (const int c : seen) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.08);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.08);
}

TEST(Rng, ParetoTailAndSupport) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.pareto(1.0, 2.0);
    ASSERT_GE(v, 1.0);
    stats.add(v);
  }
  // Pareto(1, 2) mean = 2.
  EXPECT_NEAR(stats.mean(), 2.0, 0.15);
}

TEST(Rng, BernoulliRate) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.3, 0.02);
}

TEST(Rng, SplitIndependence) {
  Rng parent(37);
  Rng child = parent.split();
  // The child stream should not replicate the parent stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, Ci95UsesTheExactNormalQuantile) {
  // One z for every CI the repository reports (not the rounded 1.96).
  EXPECT_EQ(kZ95, 1.959963984540054);
  RunningStats s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.m2(), 5.0);
  EXPECT_EQ(s.ci95_halfwidth(), kZ95 * s.stddev() / 2.0);
}

TEST(Sample, Percentiles) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 1e-9);
}

TEST(Sample, PercentileErrors) {
  Sample s;
  EXPECT_THROW(s.percentile(50), std::invalid_argument);
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), std::invalid_argument);
  EXPECT_THROW(s.percentile(101), std::invalid_argument);
  EXPECT_DOUBLE_EQ(s.percentile(50), 1.0);
}

TEST(Sample, SummaryMentionsAllFields) {
  Sample s;
  s.add(1.0);
  s.add(2.0);
  const std::string text = s.summary();
  for (const char* field : {"mean=", "sd=", "p50=", "p95=", "min=", "max=", "n=2"}) {
    EXPECT_NE(text.find(field), std::string::npos) << field;
  }
}

// ---------------------------------------------------------------- table

TEST(Table, AsciiAlignment) {
  Table t({"name", "value"});
  t.row() << "alpha" << 1;
  t.row() << "b" << 22;
  const std::string out = t.to_ascii();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW((t.row() << "x"), std::invalid_argument);  // commits short row
}

TEST(Table, CsvEscaping) {
  Table t({"x"});
  t.add_row({"plain"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_group(1234567), "1_234_567");
  EXPECT_EQ(fmt_group(123), "123");
}

// ---------------------------------------------------------------- cli

TEST(Cli, ParsesAllForms) {
  // Note: a bare `--flag value` form would bind the value; boolean flags
  // must be followed by another option or the end of the command line.
  const char* argv[] = {"prog",         "--alpha=3", "--beta", "7",
                        "--gamma=x,y",  "positional", "--flag"};
  Cli cli(7, argv);
  EXPECT_EQ(cli.get_u64("alpha", 0), 3u);
  EXPECT_EQ(cli.get_u64("beta", 0), 7u);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_string("gamma", ""), "x,y");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_u64("missing", 42), 42u);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(cli.get_bool("missing", false));
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, TypeErrors) {
  const char* argv[] = {"prog", "--n=abc", "--b=maybe"};
  Cli cli(3, argv);
  EXPECT_THROW(cli.get_u64("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_bool("b", false), std::invalid_argument);
}

TEST(Cli, StrictNumbers) {
  const char* argv[] = {"prog",        "--neg=-1",   "--spaced= -1",
                        "--tail=12abc", "--dtail=1.5x", "--nan=nan",
                        "--inf=inf",    "--ninf=-inf",  "--ok=12",
                        "--real=-2.5e3"};
  Cli cli(10, argv);
  // std::stoull("-1") wraps to 2^64 - 1; a sign is never an unsigned value.
  EXPECT_THROW(cli.get_u64("neg", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_u64("spaced", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_u64("tail", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("tail", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("dtail", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("nan", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("inf", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("ninf", 0.0), std::invalid_argument);
  EXPECT_EQ(cli.get_u64("ok", 0), 12u);
  EXPECT_DOUBLE_EQ(cli.get_double("real", 0.0), -2500.0);
}

TEST(Cli, ParseU64IsStrict) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("12"), 12u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "-1", "-0", "+5", " 5", "5 ", "1x", "0x10",
                          "1.0", "1e3", "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Cli, RefuseUnknownNamesStrayOptionsAndArguments) {
  const char* argv[] = {"prog", "--seed=3", "--bogus=1", "extra"};
  const Cli cli(4, argv);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(cli.refuse_unknown({"seed"}));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: unknown option(s): --bogus extra\n");
  testing::internal::CaptureStderr();
  EXPECT_TRUE(cli.refuse_unknown({"seed"}, /*positional_ok=*/true));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: unknown option(s): --bogus\n");
  testing::internal::CaptureStderr();
  EXPECT_TRUE(cli.refuse_unknown({"seed", "bogus"}));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: unknown option(s): extra\n");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(cli.refuse_unknown({"seed", "bogus"}, /*positional_ok=*/true));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--t1", "--t2=true", "--t3=1",
                        "--f1=false", "--f2=0", "--f3=no"};
  Cli cli(7, argv);
  EXPECT_TRUE(cli.get_bool("t1", false));
  EXPECT_TRUE(cli.get_bool("t2", false));
  EXPECT_TRUE(cli.get_bool("t3", false));
  EXPECT_FALSE(cli.get_bool("f1", true));
  EXPECT_FALSE(cli.get_bool("f2", true));
  EXPECT_FALSE(cli.get_bool("f3", true));
}

}  // namespace
}  // namespace goc
