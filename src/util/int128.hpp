#pragma once

#include <cstdint>
#include <string>

#include "util/assert.hpp"

/// \file int128.hpp
/// Minimal 128-bit integer helpers.
///
/// `goc::Rational` needs headroom for cross-multiplied comparisons of
/// 64-bit-scale quantities; `__int128` provides it on every platform we
/// target (GCC/Clang, x86-64/aarch64). We deliberately avoid
/// `std::numeric_limits<__int128>` / `std::gcd`, which are unavailable in
/// strict-ANSI mode, and provide the few primitives we need.

namespace goc {

#if defined(__SIZEOF_INT128__)
__extension__ using i128 = __int128;
__extension__ using u128 = unsigned __int128;
#else
#error "goc requires a compiler with __int128 support"
#endif

/// Largest/smallest representable i128 (numeric_limits is not specialized
/// under -std=c++20 strict mode).
constexpr i128 kI128Max = static_cast<i128>((static_cast<u128>(1) << 127) - 1);
constexpr i128 kI128Min = -kI128Max - 1;

/// Absolute value as an unsigned 128-bit quantity (total, also for kI128Min).
constexpr u128 uabs128(i128 x) noexcept {
  return x < 0 ? ~static_cast<u128>(x) + 1 : static_cast<u128>(x);
}

/// Binary (Stein) GCD on unsigned 64-bit values; gcd64(0, x) == x. Strips
/// factors of two with `__builtin_ctzll` and reduces by subtraction, so
/// it runs without a single hardware division (a 64-bit `div` costs tens
/// of cycles per Euclid step on x86-64).
constexpr std::uint64_t gcd64(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = __builtin_ctzll(a | b);
  a >>= __builtin_ctzll(a);
  do {
    // Invariant: a is odd. b loses its factors of two, then the smaller
    // of the two odd values stays in a and b takes the (even) difference.
    b >>= __builtin_ctzll(b);
    const std::uint64_t lo = a < b ? a : b;
    b = (a < b ? b : a) - lo;
    a = lo;
  } while (b != 0);
  return a << shift;
}

/// Binary GCD on unsigned 128-bit values. gcd(0, x) == x. Dispatches to
/// `gcd64` when both operands fit — the overwhelmingly common case for
/// game quantities — so `Rational` normalization stays cheap.
constexpr u128 gcd128(u128 a, u128 b) noexcept {
  if (a == 0) return b;
  if (b == 0) return a;
  if ((a >> 64) == 0 && (b >> 64) == 0) {
    return gcd64(static_cast<std::uint64_t>(a), static_cast<std::uint64_t>(b));
  }
  int shift = 0;
  while (((a | b) & 1) == 0) {
    a >>= 1;
    b >>= 1;
    ++shift;
  }
  while ((a & 1) == 0) a >>= 1;
  do {
    while ((b & 1) == 0) b >>= 1;
    if (a > b) {
      const u128 t = a;
      a = b;
      b = t;
    }
    b -= a;
  } while (b != 0);
  return a << shift;
}

/// Checked multiplication: returns false on overflow.
inline bool mul_overflow(i128 a, i128 b, i128* out) noexcept {
  return __builtin_mul_overflow(a, b, out);
}

/// Checked addition: returns false on overflow.
inline bool add_overflow(i128 a, i128 b, i128* out) noexcept {
  return __builtin_add_overflow(a, b, out);
}

/// Multiplies, throwing goc::OverflowError on 128-bit overflow.
inline i128 checked_mul(i128 a, i128 b) {
  i128 r;
  if (mul_overflow(a, b, &r)) throw OverflowError("i128 multiply overflow");
  return r;
}

/// Adds, throwing goc::OverflowError on 128-bit overflow.
inline i128 checked_add(i128 a, i128 b) {
  i128 r;
  if (add_overflow(a, b, &r)) throw OverflowError("i128 add overflow");
  return r;
}

/// Decimal rendering (std::to_string has no i128 overload).
std::string to_string(i128 value);

}  // namespace goc
