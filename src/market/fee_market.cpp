#include "market/fee_market.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace goc::market {
namespace {

/// The fees one `accrue` call adds and the arrivals that carried them.
struct Accrual {
  double added = 0.0;
  std::uint64_t arrivals = 0;
};

/// The reference clock, which defines the stream: t_0 = E_0 and
/// t_k = t_{k-1} + E_k with E_i = −log(u_i)/λ; arrival k is accepted, and
/// carries a Pareto fee, while t_k ≤ dt. Each arrival draws its fee's
/// uniform before the next gap's.
Accrual accrue_by_sum(double rate, double scale, double shape, double dt,
                      Rng& rng) {
  Accrual out;
  double t = rng.exponential(rate);
  while (t <= dt) {
    out.added += rng.pareto(scale, shape);
    ++out.arrivals;
    t += rng.exponential(rate);
  }
  return out;
}

// The product clock decides the same t_k ≤ dt on q_k = u_0·…·u_k, because
// exactly S_k := Σ −ln(u_i)/λ ≤ dt ⇔ L_k := −ln q_k ≤ D := λ·dt. It takes
// a decision only when that decision is certain for `accrue_by_sum` too.
//
//  * The reference's rounding. Each E_i carries ≤ 2 ulp from `log` (this
//    assumes glibc's, which stays within that) and ½ ulp from the
//    division, and each of the k additions of positive terms ½ ulp of the
//    running sum. So t_k = S_k·(1 + δ) with |δ| ≤ (k+3)·2^-52, which is
//    < 2^-31 for k ≤ 2^20. Then t_k ≤ dt holds whenever
//    L_k ≤ D·(1 − 2^-30), and t_k > dt whenever L_k > D·(1 + 2^-30).
//  * The product's rounding. q is kept times 2^(512·r), r ≥ 0, by exact
//    powers of two (×2^512 once q < 2^-512), so it never leaves the normal
//    range. Its k multiplications leave it within (k+1)·2^-53 relative of
//    the exact product: below 2^-32 in the log domain for k ≤ 2^20. Past
//    2^20 arrivals the call falls back.
//  * The thresholds. In frame r, "continue" is certain once
//    q ≥ hi := exp(A + μ) and "stop" once q < lo := exp(A − μ), with
//    A = 512·r·ln 2 − D. Frame r is entered only from q ≥ lo, that is
//    while 512·r·ln 2 < L_k < 2·(D + 1), so every term of A is below
//    2·(D + 1) in size, and the roundings of A, of A ± μ and of exp
//    (< 1 ulp) add up to less than 2^-49·(D + 1) in the log domain.
//
// The margin μ = 2^-28·(D + 1) covers 2^-30·D + 2^-49·(D + 1) + 2^-32
// with room to spare. Its absolute "+ 1" is what covers the product's
// 2^-32 when D is tiny. hi never drops below 2^-512 (q ≥ 2^-512 is then a
// certain "continue", and a smaller q moves to the next frame), and an
// `exp` below its range leaves lo below every q (no "stop" in this
// frame). A step with lo ≤ q < hi and q ≥ 2^-512 returns no result, and
// the caller reruns the reference from the generator's state at entry.
constexpr std::uint64_t kMaxArrivals = std::uint64_t{1} << 20;

std::optional<Accrual> accrue_by_product(double rate, double scale,
                                         double shape, double dt, Rng& rng) {
  const double d = rate * dt;
  const double mu = 0x1.0p-28 * (d + 1.0);
  int frame = 0;
  double hi = 0.0;
  double lo = 0.0;
  const auto set_thresholds = [&] {
    const double a =
        static_cast<double>(frame) * (512.0 * std::numbers::ln2) - d;
    hi = std::max(std::exp(a + mu), 0x1.0p-512);
    lo = std::exp(a - mu);
  };
  set_thresholds();
  Accrual out;
  double q = rng.uniform01_nonzero();
  for (;;) {
    while (q >= hi) {
      if (out.arrivals == kMaxArrivals) return std::nullopt;
      out.added += rng.pareto(scale, shape);
      q *= rng.uniform01_nonzero();
      ++out.arrivals;
    }
    if (q < lo) return out;
    if (q >= 0x1.0p-512) return std::nullopt;
    q *= 0x1.0p512;
    ++frame;
    set_thresholds();
  }
}

}  // namespace

FeeMarket::FeeMarket(double tx_per_hour, double fee_scale, double fee_shape)
    : tx_per_hour_(tx_per_hour), fee_scale_(fee_scale), fee_shape_(fee_shape) {
  GOC_CHECK_ARG(tx_per_hour >= 0.0, "tx rate must be nonnegative");
  GOC_CHECK_ARG(fee_scale > 0.0, "fee scale must be positive");
  GOC_CHECK_ARG(fee_shape > 1.0, "fee shape must exceed 1 (finite mean)");
}

double FeeMarket::accrue(double dt_hours, Rng& rng) {
  GOC_CHECK_ARG(dt_hours >= 0.0 && std::isfinite(dt_hours),
                "dt must be finite and nonnegative");
  static obs::Counter& arrivals =
      obs::Registry::instance().counter("market.fee.arrivals");
  static obs::Counter& fallbacks =
      obs::Registry::instance().counter("market.fee.clock_fallbacks");
  if (tx_per_hour_ <= 0.0) return 0.0;
  const Rng entry = rng;
  std::optional<Accrual> accrual =
      accrue_by_product(tx_per_hour_, fee_scale_, fee_shape_, dt_hours, rng);
  if (!accrual) {
    rng = entry;
    accrual =
        accrue_by_sum(tx_per_hour_, fee_scale_, fee_shape_, dt_hours, rng);
    fallbacks.add();
  }
  arrivals.add(accrual->arrivals);
  pending_ += accrual->added;
  return accrual->added;
}

void FeeMarket::inject_whale(double fee) {
  GOC_CHECK_ARG(fee >= 0.0, "whale fee must be nonnegative");
  pending_ += fee;
  whale_total_ += fee;
}

double FeeMarket::collect() {
  const double out = pending_;
  pending_ = 0.0;
  return out;
}

double FeeMarket::expected_hourly() const noexcept {
  // Pareto(scale, shape) mean = scale·shape/(shape−1).
  return tx_per_hour_ * fee_scale_ * fee_shape_ / (fee_shape_ - 1.0);
}

}  // namespace goc::market
