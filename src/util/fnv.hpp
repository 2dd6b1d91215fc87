#pragma once

#include <bit>
#include <cstdint>

/// \file fnv.hpp
/// FNV-1a hashing primitives, single-sourced.
///
/// Three hash-equality contracts in this repo ride on FNV-1a: the learning
/// loop's `move_hash` (scan-vs-index trajectory equality), configuration
/// hashing (equilibrium dedup buckets), and the sim layer's trajectory /
/// value-matrix hashes (committed pins and thread-invariance checks). Two
/// mixing granularities are deliberately kept:
///  * `mix_word`  — one xor-multiply per 64-bit word (the historical
///    `move_hash` / `Configuration::hash` definition; cheap, and collisions
///    only matter within small in-run sets);
///  * `mix_bytes` — canonical byte-wise FNV-1a (the sim layer's trajectory
///    hashes, where whole result structs are folded in).
/// Changing either changes published hash columns — don't.

namespace goc::fnv {

inline constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kPrime = 0x100000001b3ULL;

/// One xor-multiply step over a whole 64-bit word.
inline void mix_word(std::uint64_t& h, std::uint64_t v) noexcept {
  h ^= v;
  h *= kPrime;
}

/// Canonical byte-wise FNV-1a over the 8 bytes of `v` (LSB first).
inline void mix_bytes(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= kPrime;
  }
}

inline void mix_bytes(std::uint64_t& h, double v) noexcept {
  mix_bytes(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace goc::fnv
