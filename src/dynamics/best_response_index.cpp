#include "dynamics/best_response_index.hpp"

#include <algorithm>
#include <bit>

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace goc::dynamics {

BestResponseIndex::BestResponseIndex(const Game& game, const Configuration& s)
    : game_(&game),
      tracked_(&s),
      cmp_(game),
      unrestricted_(game.access().is_unrestricted()) {
  GOC_CHECK_ARG(&s.system() == &game.system(),
                "configuration belongs to a different system");
  const std::size_t n = game.num_miners();
  stride_ = (game.num_coins() + 63) / 64;
  best_.assign(n, -1);
  gain_.assign(n, Rational(0));
  gain_valid_.assign(n, 0);
  count_.assign(n, 0);
  improving_.assign(n * stride_, 0);
  unstable_flag_.assign(n, 0);
  // Full capacity up front: set_stability's sorted inserts, and rebuilds
  // after reweights, never allocate afterwards.
  unstable_.reserve(n);
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
  const std::size_t n = game_->num_miners();
  std::fill(improving_.begin(), improving_.end(), 0);
  unstable_.clear();
  total_improving_ = 0;
  for (std::uint32_t q = 0; q < n; ++q) {
    // rescan() only adjusts the sorted unstable set on status *changes*, so
    // start every miner from the stable state.
    best_[q] = -1;
    count_[q] = 0;
    unstable_flag_[q] = 0;
    rescan(MinerId(q));
  }
  epoch_ = tracked_->move_epoch();
}

void BestResponseIndex::apply_delta(const MoveDelta& delta) {
  const Configuration& s = *tracked_;
  const CoinId lighter = delta.from;  // lost m_p: strictly more attractive
  const CoinId heavier = delta.to;    // gained m_p: strictly less attractive
  const std::int32_t heavier_id = static_cast<std::int32_t>(heavier.value);
  const std::size_t n = game_->num_miners();
  std::uint64_t rescanned = 0;
  for (std::uint32_t q = 0; q < n; ++q) {
    const CoinId here = s.of(MinerId(q));
    // Dirty miners: own payoff changed (on a touched coin — this covers the
    // mover itself, now sitting on `to`), or the cached best response
    // worsened (== to) so the runner-up is unknown.
    if (here == lighter || here == heavier || best_[q] == heavier_id) {
      rescan(MinerId(q));
      ++rescanned;
    } else {
      update_spectator(MinerId(q), lighter, heavier);
    }
  }
  static obs::Counter& rescans =
      obs::Registry::instance().counter("index.rescans");
  rescans.add(rescanned);
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
  gain_valid_[q.value] = 0;
  set_stability(q, !best_is_here);
}

void BestResponseIndex::update_spectator(MinerId q, CoinId lighter,
                                         CoinId heavier) {
  const Configuration& s = *tracked_;
  // The heavier coin strictly worsened: it can drop out of q's improving
  // set but can never newly enter it, and it is not q's cached best (that
  // case was rescanned), so only the bit and count can change.
  if (unrestricted_ || game_->can_mine(q, heavier)) {
    const bool was = improving_bit(q, heavier);
    if (was && !cmp_.improves(s, q, heavier)) {
      write_improving_bit(q, heavier, false);
      --count_[q.value];
      --total_improving_;
    }
  }
  // The lighter coin strictly improved: it can newly enter the improving
  // set and can newly become the best response (exact ties break toward
  // the lower coin id, as the reference scan does).
  if (!unrestricted_ && !game_->can_mine(q, lighter)) return;
  const bool improves_now = cmp_.improves(s, q, lighter);
  const bool was = improving_bit(q, lighter);
  if (was != improves_now) {
    write_improving_bit(q, lighter, improves_now);
    if (improves_now) {
      ++count_[q.value];
      ++total_improving_;
    } else {
      --count_[q.value];
      --total_improving_;
    }
  }
  const std::int32_t t = best_[q.value];
  if (t < 0) {
    if (improves_now) {
      // Previously stable: the lighter coin is the only improving coin, so
      // it is the unique best response.
      best_[q.value] = static_cast<std::int32_t>(lighter.value);
      gain_valid_[q.value] = 0;
      set_stability(q, true);
    }
    return;
  }
  if (static_cast<std::uint32_t>(t) == lighter.value) {
    // The cached best got strictly better: still the best, stale gain.
    gain_valid_[q.value] = 0;
    return;
  }
  if (!improves_now) return;  // cannot beat a target that beats the payoff
  const std::strong_ordering vs_best =
      cmp_.compare(s, q, lighter, CoinId(static_cast<std::uint32_t>(t)));
  if (vs_best > 0 ||
      (vs_best == 0 && lighter.value < static_cast<std::uint32_t>(t))) {
    best_[q.value] = static_cast<std::int32_t>(lighter.value);
    gain_valid_[q.value] = 0;
  }
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

bool BestResponseIndex::improving_bit(MinerId q, CoinId c) const {
  return (improving_[q.value * stride_ + (c.value >> 6)] >>
          (c.value & 63)) & 1;
}

void BestResponseIndex::write_improving_bit(MinerId q, CoinId c, bool value) {
  std::uint64_t& word = improving_[q.value * stride_ + (c.value >> 6)];
  const std::uint64_t mask = std::uint64_t{1} << (c.value & 63);
  if (value) {
    word |= mask;
  } else {
    word &= ~mask;
  }
}

const Rational& BestResponseIndex::best_gain(MinerId p) const {
  GOC_ASSERT(best_[p.value] >= 0, "best_gain queried for a stable miner");
  if (!gain_valid_[p.value]) {
    gain_[p.value] =
        gain_of(p, CoinId(static_cast<std::uint32_t>(best_[p.value])));
    gain_valid_[p.value] = 1;
  }
  return gain_[p.value];
}

std::optional<Move> BestResponseIndex::best_move(MinerId p) const {
  const auto target = best_of(p);
  if (!target) return std::nullopt;
  return Move{p, tracked_->of(p), *target, best_gain(p)};
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

Rational BestResponseIndex::gain_of(MinerId p, CoinId c) const {
  return move_gain(*game_, *tracked_, p, c);
}

Move BestResponseIndex::move_to(MinerId p, CoinId c) const {
  return Move{p, tracked_->of(p), c, gain_of(p, c)};
}

void BestResponseIndex::audit() const {
  const Configuration& s = *tracked_;
  GOC_ASSERT(epoch_ == s.move_epoch(), "index out of sync with configuration");
  std::vector<CoinId> improving;
  improving.reserve(game_->num_coins());
  std::size_t total = 0;
  for (std::uint32_t q = 0; q < game_->num_miners(); ++q) {
    const MinerId miner(q);
    const MoveScan reference = scan_moves(*game_, s, miner, &improving);
    GOC_ASSERT(reference.best == best_of(miner),
               "index best response diverged from scan");
    if (reference.best) {
      // A valid cached gain must equal the scan's. A stale one takes the
      // scan's gain: the best responses agree, so that is exactly the
      // value `best_gain` would compute and cache.
      const Rational gain = reference.best_gain();
      if (gain_valid_[q]) {
        GOC_ASSERT(gain_[q] == gain, "index gain diverged from scan");
      } else {
        gain_[q] = gain;
        gain_valid_[q] = 1;
      }
    }
    GOC_ASSERT(improving.size() == count_[q],
               "index improving count diverged from scan");
    for (std::size_t i = 0; i < improving.size(); ++i) {
      GOC_ASSERT(nth_improving(miner, i) == improving[i],
                 "index improving set diverged from scan");
    }
    GOC_ASSERT(static_cast<bool>(unstable_flag_[q]) == !improving.empty(),
               "index stability flag diverged from scan");
    total += improving.size();
  }
  GOC_ASSERT(total == total_improving_,
             "index total improving count diverged from scan");
  GOC_ASSERT(unstable_.size() ==
                 static_cast<std::size_t>(std::count(unstable_flag_.begin(),
                                                     unstable_flag_.end(), 1)),
             "index unstable set diverged from flags");
}

}  // namespace goc::dynamics
