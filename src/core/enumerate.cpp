#include "core/enumerate.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/int128.hpp"
#include "util/rational.hpp"

namespace goc {

std::optional<std::uint64_t> configuration_count(const System& system) {
  const std::uint64_t coins = system.num_coins();
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < system.num_miners(); ++i) {
    if (total > (static_cast<std::uint64_t>(INT64_MAX) / coins)) return std::nullopt;
    total *= coins;
  }
  return total;
}

void for_each_configuration(
    const std::shared_ptr<const System>& system, std::uint64_t max_configs,
    const std::function<bool(const Configuration&)>& visit) {
  GOC_CHECK_ARG(system != nullptr, "for_each_configuration requires a system");
  const auto count = configuration_count(*system);
  GOC_CHECK_ARG(count.has_value() && *count <= max_configs,
                "configuration space too large to enumerate");

  const std::size_t n = system->num_miners();
  const std::uint32_t coins = static_cast<std::uint32_t>(system->num_coins());
  Configuration config = Configuration::all_at(system, CoinId(0));
  std::vector<std::uint32_t> digits(n, 0);
  for (;;) {
    if (!visit(config)) return;
    // Odometer increment; miner 0 is the least-significant digit.
    std::size_t pos = 0;
    while (pos < n) {
      if (++digits[pos] < coins) {
        config.move(MinerId(static_cast<std::uint32_t>(pos)), CoinId(digits[pos]));
        break;
      }
      digits[pos] = 0;
      config.move(MinerId(static_cast<std::uint32_t>(pos)), CoinId(0));
      ++pos;
    }
    if (pos == n) return;  // odometer wrapped — all configurations visited
  }
}

// ---------------------------------------------------------------- symmetry

namespace {

/// C(n, k) as u64; nullopt on overflow. Exact at every step: the running
/// product after multiplying by (n-k+i) is divisible by i.
std::optional<std::uint64_t> binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  u128 result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    u128 next;
    if (__builtin_mul_overflow(result, static_cast<u128>(n - k + i), &next)) {
      return std::nullopt;
    }
    result = next / i;
  }
  if (result > static_cast<u128>(UINT64_MAX)) return std::nullopt;
  return static_cast<std::uint64_t>(result);
}

/// Non-decreasing sequences of length `slots` over `values` coin choices:
/// C(slots + values - 1, slots).
std::optional<std::uint64_t> multiset_count(std::uint64_t slots,
                                            std::uint64_t values) {
  if (slots == 0) return 1;
  GOC_ASSERT(values > 0, "multiset_count over an empty value set");
  return binomial(slots + values - 1, slots);
}

}  // namespace

std::vector<std::uint32_t> symmetry_class_ids(const Game& game) {
  const System& system = game.system();
  const std::vector<MinerId>& order = system.power_order();
  const std::size_t n = order.size();
  const std::uint32_t coins = static_cast<std::uint32_t>(game.num_coins());
  const bool unrestricted = game.access().is_unrestricted();
  const auto same_row = [&](MinerId a, MinerId b) {
    if (unrestricted) return true;
    for (std::uint32_t c = 0; c < coins; ++c) {
      if (game.can_mine(a, CoinId(c)) != game.can_mine(b, CoinId(c))) {
        return false;
      }
    }
    return true;
  };
  // ids[p] first holds p's leader, the smallest id interchangeable with p.
  // Equal powers sit next to each other in power_order(), in ascending id,
  // so the first member of a run with a given access row is its leader.
  std::vector<std::uint32_t> ids(n);
  std::vector<MinerId> leaders;  // of the current run
  for (std::size_t i = 0; i < n;) {
    const Rational& power = system.power(order[i]);
    leaders.clear();
    for (; i < n && system.power(order[i]) == power; ++i) {
      const MinerId p = order[i];
      const auto same = std::find_if(leaders.begin(), leaders.end(),
                                     [&](MinerId l) { return same_row(l, p); });
      if (same == leaders.end()) {
        leaders.push_back(p);
        ids[p.value] = p.value;
      } else {
        ids[p.value] = same->value;
      }
    }
  }
  // A leader precedes its classmates in id order, so its entry already
  // holds the class id when theirs are rewritten.
  std::uint32_t next = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    ids[p] = ids[p] == p ? next++ : ids[ids[p]];
  }
  return ids;
}

SymmetryClasses symmetry_classes(const Game& game) {
  SymmetryClasses out;
  out.class_of = symmetry_class_ids(game);
  out.next_classmate.assign(out.class_of.size(), -1);
  for (std::uint32_t p = 0; p < out.class_of.size(); ++p) {
    const std::uint32_t k = out.class_of[p];
    if (k == out.classes.size()) {
      out.classes.push_back({MinerId(p)});
    } else {
      out.next_classmate[out.classes[k].back().value] =
          static_cast<std::int32_t>(p);
      out.classes[k].push_back(MinerId(p));
      out.trivial = false;
    }
  }
  return out;
}

SymmetryClasses classes_for(const Game& game, const EnumerationOptions& opts) {
  return opts.symmetry ? symmetry_classes(game)
                       : singleton_classes(game.num_miners());
}

SymmetryClasses singleton_classes(std::size_t num_miners) {
  SymmetryClasses out;
  out.class_of.resize(num_miners);
  out.next_classmate.assign(num_miners, -1);
  out.classes.reserve(num_miners);
  for (std::uint32_t p = 0; p < num_miners; ++p) {
    out.class_of[p] = p;
    out.classes.push_back({MinerId(p)});
  }
  return out;
}

std::optional<std::uint64_t> canonical_count(const System& system,
                                             const SymmetryClasses& classes) {
  std::uint64_t total = 1;
  for (const auto& members : classes.classes) {
    const auto per_class = multiset_count(members.size(), system.num_coins());
    if (!per_class.has_value()) return std::nullopt;
    if (*per_class != 0 && total > UINT64_MAX / *per_class) return std::nullopt;
    total *= *per_class;
  }
  return total;
}

std::uint64_t orbit_size(const std::vector<CoinId>& assignment,
                         const SymmetryClasses& classes) {
  u128 total = 1;
  std::vector<std::uint64_t> on_coin;
  for (const auto& members : classes.classes) {
    if (members.size() < 2) continue;
    on_coin.clear();
    for (const MinerId p : members) {
      const std::uint32_t c = assignment[p.value].value;
      if (c >= on_coin.size()) on_coin.resize(c + 1, 0);
      ++on_coin[c];
    }
    // |K|! / Π_c cnt_c! as a product of binomials C(remaining, cnt_c).
    std::uint64_t remaining = members.size();
    for (const std::uint64_t cnt : on_coin) {
      if (cnt == 0) continue;
      const auto choose = binomial(remaining, cnt);
      if (!choose.has_value()) throw OverflowError("orbit size overflows u64");
      u128 next;
      if (__builtin_mul_overflow(total, static_cast<u128>(*choose), &next) ||
          next > static_cast<u128>(UINT64_MAX)) {
        throw OverflowError("orbit size overflows u64");
      }
      total = next;
      remaining -= cnt;
    }
  }
  return static_cast<std::uint64_t>(total);
}

std::vector<Configuration> expand_orbit(const Configuration& canonical,
                                        const SymmetryClasses& classes) {
  if (classes.trivial) return {canonical};
  std::vector<Configuration> out;
  std::vector<CoinId> scratch = canonical.assignment();

  // Cartesian product over classes of the distinct within-class digit
  // permutations. Canonical digits are sorted ascending per class, so
  // std::next_permutation cycles through every distinct arrangement and
  // ends back at sorted order.
  const auto emit = [&](const auto& self, std::size_t class_idx) -> void {
    if (class_idx == classes.classes.size()) {
      out.emplace_back(canonical.system_ptr(), scratch);
      return;
    }
    const auto& members = classes.classes[class_idx];
    // Read from the canonical assignment (scratch holds whatever the
    // previous arrangement of this class wrote).
    std::vector<std::uint32_t> digits;
    digits.reserve(members.size());
    for (const MinerId p : members) {
      digits.push_back(canonical.assignment()[p.value].value);
    }
    GOC_ASSERT(std::is_sorted(digits.begin(), digits.end()),
               "expand_orbit requires a canonical representative");
    do {
      for (std::size_t j = 0; j < members.size(); ++j) {
        scratch[members[j].value] = CoinId(digits[j]);
      }
      self(self, class_idx + 1);
    } while (std::next_permutation(digits.begin(), digits.end()));
  };
  emit(emit, 0);
  return out;
}

std::uint64_t odometer_rank(const std::vector<CoinId>& assignment,
                            std::size_t num_coins) {
  std::uint64_t rank = 0;
  for (std::size_t i = assignment.size(); i-- > 0;) {
    rank = rank * num_coins + assignment[i].value;
  }
  return rank;
}

// ---------------------------------------------------------------- sharding

namespace {

/// Canonical count of the free region given the pinned digits
/// `digits[free_miners..n)`: per class, the free members (ids <
/// free_miners, always a prefix of the class in id order) form a
/// non-decreasing sequence bounded above by the class's first pinned digit
/// (or the largest coin). The free entries of `digits` are ignored.
std::uint64_t shard_size(const System& system, const SymmetryClasses& classes,
                         std::size_t free_miners,
                         const std::vector<std::uint32_t>& digits) {
  std::uint64_t total = 1;
  for (const auto& members : classes.classes) {
    std::size_t free_count = 0;
    std::uint32_t values = static_cast<std::uint32_t>(system.num_coins());
    for (const MinerId p : members) {
      if (p.value < free_miners) {
        ++free_count;
      } else {
        // First pinned member (smallest id >= free_miners) caps the free run.
        values = digits[p.value] + 1;
        break;
      }
    }
    const auto per_class = multiset_count(free_count, values);
    GOC_ASSERT(per_class.has_value(), "shard size overflows u64");
    total *= *per_class;
  }
  return total;
}

}  // namespace

std::vector<std::uint32_t> canonical_digits_at_rank(
    const System& system, const SymmetryClasses& classes, std::uint64_t rank) {
  const std::size_t n = system.num_miners();
  const std::uint32_t coins = static_cast<std::uint32_t>(system.num_coins());
  // Choose digits most-significant first: the canonical walk's visit order
  // is lexicographic on (digit n−1, …, digit 0), and the number of
  // canonical completions below position `pos` depends only on the digits
  // at and above it — so each digit is found by subtracting completion
  // blocks until the residual rank falls inside one.
  std::vector<std::uint32_t> digits(n, 0);
  for (std::size_t pos = n; pos-- > 0;) {
    const std::uint32_t cap = canonical_cap(classes, digits, pos, coins);
    bool placed = false;
    for (std::uint32_t d = 0; d <= cap; ++d) {
      digits[pos] = d;
      const std::uint64_t block = shard_size(system, classes, pos, digits);
      if (rank < block) {
        placed = true;
        break;
      }
      rank -= block;
    }
    GOC_ASSERT(placed, "rank beyond the canonical space");
  }
  GOC_ASSERT(rank == 0, "canonical unranking left a remainder");
  return digits;
}

ShardPlan plan_shards(const System& system, const SymmetryClasses& classes,
                      std::size_t target_shards) {
  const std::size_t n = system.num_miners();
  const std::uint32_t coins = static_cast<std::uint32_t>(system.num_coins());

  // Smallest pinned suffix whose canonical prefix count reaches the
  // target. Counting per candidate k is closed-form, so this scan is cheap.
  std::size_t pinned = 0;
  if (target_shards > 1) {
    for (; pinned < n; ++pinned) {
      std::uint64_t count = 1;
      bool overflow = false;
      for (const auto& members : classes.classes) {
        std::size_t in_suffix = 0;
        for (const MinerId p : members) {
          if (p.value >= n - pinned) ++in_suffix;
        }
        const auto per_class = multiset_count(in_suffix, coins);
        if (!per_class.has_value() || (*per_class != 0 && count > UINT64_MAX / *per_class)) {
          overflow = true;
          break;
        }
        count *= *per_class;
      }
      if (overflow || count >= target_shards) break;
    }
  }
  const std::size_t free_miners = n - pinned;

  // Phase 1: enumerate the pinned digits canonically, least-significant
  // pinned miner first — exactly the global odometer order. A shard's
  // start is the prefix with the free region all-zero (the prefix's first
  // canonical configuration).
  ShardPlan plan;
  std::vector<std::uint32_t> digits(n, 0);
  std::uint64_t rank = 0;
  do {
    const std::uint64_t size = shard_size(system, classes, free_miners, digits);
    plan.starts.push_back(digits);
    plan.sizes.push_back(size);
    plan.start_ranks.push_back(rank);
    rank += size;
  } while (canonical_step(classes, digits, free_miners, coins,
                          [](std::size_t, std::uint32_t, std::uint32_t) {}));

  // Phase 2: prefix sizes can be wildly uneven (one big symmetry class
  // puts ~the whole space under a single top digit). Split every prefix
  // exceeding the ideal per-shard load into even rank subranges, unranking
  // each subrange's start digits — rank concatenation is unchanged, so
  // results stay bit-identical to the unsplit plan.
  const std::uint64_t total = rank;
  if (target_shards > 1 && total > 0) {
    const std::uint64_t ideal =
        (total + target_shards - 1) / static_cast<std::uint64_t>(target_shards);
    ShardPlan split;
    for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
      const std::uint64_t size = plan.sizes[i];
      if (size <= ideal) {
        split.starts.push_back(std::move(plan.starts[i]));
        split.sizes.push_back(size);
        split.start_ranks.push_back(plan.start_ranks[i]);
        continue;
      }
      const std::uint64_t pieces = (size + ideal - 1) / ideal;
      const std::uint64_t base = size / pieces;
      const std::uint64_t extra = size % pieces;  // first `extra` get +1
      std::uint64_t piece_rank = plan.start_ranks[i];
      for (std::uint64_t j = 0; j < pieces; ++j) {
        const std::uint64_t piece = base + (j < extra ? 1 : 0);
        split.starts.push_back(
            j == 0 ? std::move(plan.starts[i])
                   : canonical_digits_at_rank(system, classes, piece_rank));
        split.sizes.push_back(piece);
        split.start_ranks.push_back(piece_rank);
        piece_rank += piece;
      }
    }
    plan = std::move(split);
  }
  return plan;
}

WalkState::WalkState(const Game& game) {
  const std::size_t n = game.num_miners();
  const std::size_t coins = game.num_coins();
  if (!scale_to_integers(game.system().powers(), power_, scale_)) {
    throw OverflowError("scaled mining powers overflow i128");
  }
  i128 total = 0;
  for (const i128 m : power_) total = checked_add(total, m);
  restricted_ = !game.access().is_unrestricted();
  if (restricted_) {
    allowed_.resize(n * coins);
    for (std::uint32_t p = 0; p < n; ++p) {
      for (std::uint32_t c = 0; c < coins; ++c) {
        allowed_[p * coins + c] = game.can_mine(MinerId(p), CoinId(c)) ? 1 : 0;
      }
    }
  }
  mass_.resize(coins);
  population_.resize(coins);
  reset(std::vector<std::uint32_t>(n, 0));
}

void WalkState::reset(const std::vector<std::uint32_t>& digits) {
  digits_ = digits;
  std::fill(mass_.begin(), mass_.end(), 0);
  std::fill(population_.begin(), population_.end(), 0);
  violations_ = 0;
  for (std::size_t p = 0; p < digits.size(); ++p) {
    mass_[digits[p]] += power_[p];
    ++population_[digits[p]];
    if (!may_mine(p, digits[p])) ++violations_;
  }
}

Configuration materialize_configuration(const std::shared_ptr<const System>& system,
                                        const std::vector<std::uint32_t>& digits) {
  std::vector<CoinId> assignment;
  assignment.reserve(digits.size());
  for (const std::uint32_t d : digits) assignment.emplace_back(d);
  return Configuration(system, std::move(assignment));
}

namespace {

/// Shards per lane, so uneven per-shard cost still load-balances across
/// the pool.
constexpr std::size_t kShardsPerLane = 8;

/// Lane count for `opts` over `load` weighted configurations: the pool's
/// lanes (or `opts.threads`), clamped to 1 below the serial cutoff.
std::size_t enumeration_lanes(const EnumerationOptions& opts,
                              std::optional<std::uint64_t> load) {
  if (load.has_value() && *load < opts.serial_cutoff) return 1;
  // An explicitly provided pool is the caller's deliberate lane choice.
  if (opts.pool != nullptr) return opts.pool->num_threads() + 1;
  // Otherwise cap at hardware: a CPU-bound walk never benefits from more
  // lanes than cores — oversubscription only adds scheduler noise.
  // (Results are identical at any lane count; purely a scheduling call.)
  const std::size_t lanes = engine::ThreadPool::resolve_lanes(opts.threads);
  const std::size_t hw = engine::ThreadPool::default_threads();
  return lanes < hw ? lanes : hw;
}

std::size_t shard_target(const EnumerationOptions& opts, std::size_t lanes,
                         std::optional<std::uint64_t> load) {
  if (lanes == 1) return 1;
  std::size_t target = lanes * kShardsPerLane;
  if (load.has_value() && opts.min_shard_configs > 0) {
    const std::uint64_t fit = *load / opts.min_shard_configs;
    if (fit < target) {
      target = static_cast<std::size_t>(fit < lanes ? lanes : fit);
    }
  }
  return target;
}

}  // namespace

EnumerationPlan plan_enumeration(const System& system,
                                 const SymmetryClasses& classes,
                                 const EnumerationOptions& opts,
                                 std::uint64_t weight) {
  std::optional<std::uint64_t> load = canonical_count(system, classes);
  if (load.has_value()) {
    if (weight != 0 && *load > UINT64_MAX / weight) {
      load.reset();  // overflow: a space this heavy is never serial
    } else {
      *load *= weight;
    }
  }
  EnumerationPlan plan;
  plan.lanes = enumeration_lanes(opts, load);
  plan.shards = plan_shards(system, classes, shard_target(opts, plan.lanes, load));
  return plan;
}

}  // namespace goc
