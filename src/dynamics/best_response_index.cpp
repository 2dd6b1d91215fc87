#include "dynamics/best_response_index.hpp"

#include <algorithm>
#include <bit>

#include "core/enumerate.hpp"
#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace goc::dynamics {

BestResponseIndex::BestResponseIndex(const Game& game, const Configuration& s)
    : game_(&game),
      tracked_(&s),
      before_(s),
      cmp_(game),
      unrestricted_(game.access().is_unrestricted()),
      n_(game.num_miners()) {
  GOC_CHECK_ARG(&s.system() == &game.system(),
                "configuration belongs to a different system");
  const std::size_t coins = game.num_coins();
  stride_ = (coins + 63) / 64;
  best_.assign(n_, -1);
  count_.assign(n_, 0);
  improving_.assign(n_ * stride_, 0);
  unstable_flag_.assign(n_, 0);
  // Full capacity up front: set_stability's sorted inserts, and rebuilds
  // after reweights, never allocate afterwards.
  unstable_.reserve(n_);
  // Ascending power is the system's descending order read backwards.
  const std::vector<MinerId>& order = game.system().power_order();
  rank_.resize(n_);
  for (std::uint32_t i = 0; i < n_; ++i) rank_[order[i].value] = n_ - 1 - i;
  members_.assign(n_, 0);
  start_.assign(coins + 1, 0);
  visited_.assign(n_, 0);
  class_ = symmetry_class_ids(game);
  num_classes_ = *std::max_element(class_.begin(), class_.end()) + 1;
  rebuild();
}

void BestResponseIndex::reweight() {
  // Every reward changed, so every cached ordering is stale — but the
  // storage layout is not. Refresh the comparator in place (its mode and
  // rescaled reward numerators depend on the rewards) and rescan every
  // miner into the existing strips; neither step allocates.
  cmp_.refresh();
  rebuild();
}

void BestResponseIndex::sync(const Configuration& s) {
  if (tracked_ == &s) {
    if (epoch_ == s.move_epoch()) return;
    if (epoch_ + 1 == s.move_epoch()) {
      apply_delta(s.last_delta());
      epoch_ = s.move_epoch();
      return;
    }
  }
  tracked_ = &s;
  GOC_CHECK_ARG(&s.system() == &game_->system(),
                "configuration belongs to a different system");
  rebuild();
}

void BestResponseIndex::rebuild() {
  const Configuration& s = *tracked_;
  before_ = s;
  // Counting sort of by_power_ into coin groups: start_[c + 1] counts coin
  // c, prefix sums turn counts into starts, placing advances each start to
  // its group's end, and one shift restores the starts.
  std::fill(start_.begin(), start_.end(), 0);
  for (std::uint32_t q = 0; q < n_; ++q) ++start_[s.of(MinerId(q)).value + 1];
  for (std::size_t c = 1; c < start_.size(); ++c) start_[c] += start_[c - 1];
  const std::vector<MinerId>& order = game_->system().power_order();
  for (auto q = order.rbegin(); q != order.rend(); ++q) {
    members_[start_[s.of(*q).value]++] = q->value;
  }
  for (std::size_t c = start_.size() - 1; c > 0; --c) start_[c] = start_[c - 1];
  start_[0] = 0;
  std::fill(improving_.begin(), improving_.end(), 0);
  unstable_.clear();
  total_improving_ = 0;
  for (std::uint32_t q = 0; q < n_; ++q) {
    // rescan() only adjusts the sorted unstable set on status *changes*, so
    // start every miner from the stable state.
    best_[q] = -1;
    count_[q] = 0;
    unstable_flag_[q] = 0;
    rescan(MinerId(q));
  }
  epoch_ = s.move_epoch();
}

void BestResponseIndex::apply_delta(const MoveDelta& delta) {
  const CoinId a = delta.from;  // lost m_p: more attractive
  const CoinId b = delta.to;    // gained m_p: less attractive
  const RewardFunction& rewards = game_->rewards();
  // The mover's slot in b's group is left out of b's searches: its home
  // differs between the two configurations the searches compare.
  const std::size_t mover_slot = relocate(delta.miner, a, b) - start_[b.value];
  ++stamp_;
  std::size_t rescanned = 0;
  // Only the masses of a and b changed, so a sign can flip only where a
  // or b is the home or a compared coin. x gained on y when x is the
  // lighter coin or y the heavier one.
  const auto visit = [&](CoinId home, CoinId x, CoinId y) {
    rescanned += rescan_flipped_run(home, home == b ? mover_slot : kNoSlot, x,
                                    y, x == a || y == b);
  };
  const std::uint32_t coins = static_cast<std::uint32_t>(game_->num_coins());
  for (std::uint32_t h = 0; h < coins; ++h) {
    if (start_[h] == start_[h + 1]) continue;
    const CoinId home(h);
    const bool home_changed = home == a || home == b;
    // Improving tests (c vs staying home), nonincreasing in power.
    for (std::uint32_t c = 0; c < coins; ++c) {
      const CoinId coin(c);
      if (coin != home && (home_changed || coin == a || coin == b)) {
        visit(home, coin, home);
      }
    }
    // Orders of two non-home coins, oriented so the sign is nonincreasing
    // in power (the slope is K_x − K_y).
    for (const CoinId x : {a, b}) {
      if (x == home) continue;
      for (std::uint32_t c = 0; c < coins; ++c) {
        const CoinId y(c);
        if (y == home || y == x || (x == b && y == a)) continue;
        if (rewards(x) > rewards(y)) {
          visit(home, y, x);
        } else {
          visit(home, x, y);
        }
      }
    }
  }
  rescan(delta.miner);
  ++rescanned;
  before_.move(delta.miner, b);
  static obs::Counter& rescans =
      obs::Registry::instance().counter("index.rescans");
  rescans.add(rescanned);
}

std::size_t BestResponseIndex::rescan_flipped_run(CoinId home,
                                                  std::size_t skip, CoinId x,
                                                  CoinId y, bool x_gained) {
  // Along the home's members in ascending power, sign(u(x) − u(y)) is
  // nonincreasing both before and after the move, and the move raised
  // (x gained) or lowered the curve by the same amount for every member.
  // With `low` the lower of the two curves and `high` the upper one, the
  // sign flipped exactly where low ≤ 0 ≤ high: one contiguous run.
  const Configuration& low = x_gained ? before_ : *tracked_;
  const Configuration& high = x_gained ? *tracked_ : before_;
  const std::uint32_t* group = members_.data() + start_[home.value];
  const std::size_t size = start_[home.value + 1] - start_[home.value] -
                           (skip == kNoSlot ? 0 : 1);
  const auto member = [&](std::size_t i) {
    return MinerId(group[i < skip ? i : i + 1]);
  };
  // First i in [from, to) where `pred` fails; it holds on a prefix.
  const auto first_false = [&](std::size_t from, std::size_t to,
                               const auto& pred) {
    while (from < to) {
      const std::size_t mid = from + (to - from) / 2;
      if (pred(member(mid))) {
        from = mid + 1;
      } else {
        to = mid;
      }
    }
    return from;
  };
  std::size_t lo = first_false(0, size, [&](MinerId q) {
    return cmp_.compare(low, q, x, y) > 0;
  });
  // Runs are short: gallop from `lo` to bracket the far end, then bisect.
  const auto in_run = [&](MinerId q) {
    return cmp_.compare(high, q, x, y) >= 0;
  };
  const std::size_t rest = size - lo;
  std::size_t bound = 1;
  while (bound <= rest && in_run(member(lo + bound - 1))) bound *= 2;
  const std::size_t hi =
      first_false(lo + bound / 2, lo + std::min(bound - 1, rest), in_run);
  std::size_t rescanned = 0;
  for (; lo < hi; ++lo) {
    const MinerId q = member(lo);
    if (visited_[q.value] == stamp_) continue;
    visited_[q.value] = stamp_;
    rescan(q);
    ++rescanned;
  }
  return rescanned;
}

std::size_t BestResponseIndex::relocate(MinerId q, CoinId from, CoinId to) {
  const auto slot_in = [&](CoinId c) {
    const auto first = members_.begin() + start_[c.value];
    const auto last = members_.begin() + start_[c.value + 1];
    return std::lower_bound(first, last, rank_[q.value],
                            [&](std::uint32_t member, std::uint32_t r) {
                              return rank_[member] < r;
                            });
  };
  const auto at = slot_in(from);
  GOC_DASSERT(at != members_.begin() + start_[from.value + 1] && *at == q.value,
              "member groups out of sync");
  const auto dest = slot_in(to);
  // One rotation shifts the groups between `from` and `to` by one slot.
  if (from.value < to.value) {
    std::rotate(at, at + 1, dest);
    for (std::uint32_t c = from.value + 1; c <= to.value; ++c) --start_[c];
    return static_cast<std::size_t>(dest - members_.begin()) - 1;
  }
  std::rotate(dest, at, at + 1);
  for (std::uint32_t c = to.value + 1; c <= from.value; ++c) ++start_[c];
  return static_cast<std::size_t>(dest - members_.begin());
}

void BestResponseIndex::rescan(MinerId q) {
  const Configuration& s = *tracked_;
  const CoinId here = s.of(q);
  const std::size_t coins = game_->num_coins();
  std::uint32_t count = 0;
  // Mirrors the reference `best_response` scan: the running best starts at
  // the current coin and only a strictly larger post-move payoff replaces
  // it, so ties resolve toward the lowest coin id.
  CoinId best = here;
  bool best_is_here = true;
  std::uint64_t* row = &improving_[q.value * stride_];
  std::fill(row, row + stride_, 0);
  for (std::uint32_t c = 0; c < coins; ++c) {
    const CoinId coin(c);
    if (coin == here) continue;
    if (!unrestricted_ && !game_->can_mine(q, coin)) continue;
    const std::strong_ordering vs_best = cmp_.compare(s, q, coin, best);
    if (vs_best > 0) {
      // Beats the running best, which (weakly) beats the current payoff —
      // so `coin` is improving by transitivity.
      row[c >> 6] |= std::uint64_t{1} << (c & 63);
      ++count;
      best = coin;
      best_is_here = false;
    } else if (!best_is_here && cmp_.compare(s, q, coin, here) > 0) {
      row[c >> 6] |= std::uint64_t{1} << (c & 63);
      ++count;
    }
  }
  total_improving_ += count;
  total_improving_ -= count_[q.value];
  count_[q.value] = count;
  best_[q.value] =
      best_is_here ? -1 : static_cast<std::int32_t>(best.value);
  set_stability(q, !best_is_here);
}

void BestResponseIndex::set_stability(MinerId q, bool unstable_now) {
  if (static_cast<bool>(unstable_flag_[q.value]) == unstable_now) return;
  unstable_flag_[q.value] = unstable_now ? 1 : 0;
  const auto pos = std::lower_bound(unstable_.begin(), unstable_.end(), q,
                                    [](MinerId a, MinerId b) {
                                      return a.value < b.value;
                                    });
  if (unstable_now) {
    unstable_.insert(pos, q);
  } else {
    GOC_DASSERT(pos != unstable_.end() && *pos == q,
                "unstable set out of sync");
    unstable_.erase(pos);
  }
}

std::optional<Move> BestResponseIndex::best_move(MinerId p) const {
  const auto target = best_of(p);
  if (!target) return std::nullopt;
  return move_to(p, *target);
}

CoinId BestResponseIndex::nth_improving(MinerId p, std::size_t n) const {
  const std::uint64_t* row = &improving_[p.value * stride_];
  for (std::size_t w = 0; w < stride_; ++w) {
    std::uint64_t word = row[w];
    const std::size_t bits = static_cast<std::size_t>(std::popcount(word));
    if (n >= bits) {
      n -= bits;
      continue;
    }
    while (n-- > 0) word &= word - 1;  // clear the n lowest set bits
    return CoinId(static_cast<std::uint32_t>(
        w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
  }
  GOC_ASSERT(false, "nth_improving past the improving count");
  return CoinId(0);
}

CoinId BestResponseIndex::min_improving(MinerId p) const {
  GOC_ASSERT(count_[p.value] > 0, "min_improving for a stable miner");
  const Configuration& s = *tracked_;
  std::optional<CoinId> min;
  const std::uint64_t* row = &improving_[p.value * stride_];
  for (std::size_t w = 0; w < stride_; ++w) {
    for (std::uint64_t word = row[w]; word != 0; word &= word - 1) {
      const CoinId coin(static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
      // Strictly-smaller keeps the first minimum — lowest coin id on ties,
      // matching the reference min-gain ordering over (gain, miner, to).
      if (!min || cmp_.compare(s, p, coin, *min) < 0) min = coin;
    }
  }
  return *min;
}

Move BestResponseIndex::move_to(MinerId p, CoinId c) const {
  return Move{p, tracked_->of(p), c, move_gain(*game_, *tracked_, p, c)};
}

void BestResponseIndex::audit() const {
  const Configuration& s = *tracked_;
  GOC_ASSERT(epoch_ == s.move_epoch(), "index out of sync with configuration");
  const std::size_t coins = game_->num_coins();
  if (audit_leader_.empty()) {
    audit_round_of_.assign(num_classes_ * coins, 0);
    audit_leader_.assign(num_classes_ * coins, 0);
    audit_improving_.reserve(coins);
  }
  ++audit_round_;
  std::size_t total = 0;
  std::size_t scans = 0;
  for (std::uint32_t q = 0; q < n_; ++q) {
    const MinerId miner(q);
    const std::size_t cell = class_[q] * coins + s.of(miner).value;
    if (audit_round_of_[cell] != audit_round_) {
      audit_round_of_[cell] = audit_round_;
      audit_leader_[cell] = q;
      ++scans;
      const MoveScan reference =
          scan_moves(*game_, s, miner, &audit_improving_);
      GOC_ASSERT(reference.best == best_of(miner),
                 "index best response diverged from scan");
      GOC_ASSERT(audit_improving_.size() == count_[q],
                 "index improving count diverged from scan");
      for (std::size_t i = 0; i < audit_improving_.size(); ++i) {
        GOC_ASSERT(nth_improving(miner, i) == audit_improving_[i],
                   "index improving set diverged from scan");
      }
    } else {
      // The cell's scan is this miner's scan too, and the leader's facts
      // matched it; equal rows answer every improving-set query alike.
      const std::uint32_t leader = audit_leader_[cell];
      GOC_ASSERT(best_[q] == best_[leader],
                 "index best response diverged from scan");
      GOC_ASSERT(count_[q] == count_[leader],
                 "index improving count diverged from scan");
      GOC_ASSERT(std::equal(&improving_[q * stride_],
                            &improving_[q * stride_] + stride_,
                            &improving_[leader * stride_]),
                 "index improving set diverged from scan");
    }
    GOC_ASSERT(static_cast<bool>(unstable_flag_[q]) == (count_[q] != 0),
               "index stability flag diverged from scan");
    total += count_[q];
  }
  GOC_ASSERT(total == total_improving_,
             "index total improving count diverged from scan");
  GOC_ASSERT(unstable_.size() ==
                 static_cast<std::size_t>(std::count(unstable_flag_.begin(),
                                                     unstable_flag_.end(), 1)),
             "index unstable set diverged from flags");
  static obs::Counter& audit_scans =
      obs::Registry::instance().counter("index.audit_scans");
  audit_scans.add(scans);
}

}  // namespace goc::dynamics
