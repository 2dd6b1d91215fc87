#include "dynamics/scheduler.hpp"

#include <algorithm>

#include "dynamics/best_response_index.hpp"
#include "util/assert.hpp"

namespace goc {
namespace {

using dynamics::BestResponseIndex;

/// Builds the Move record for miner p moving to its best response.
std::optional<Move> best_response_move(const Game& game, const Configuration& s,
                                       MinerId p) {
  const MoveScan scan = scan_moves(game, s, p);
  if (!scan.best) return std::nullopt;
  return Move{p, s.of(p), *scan.best, scan.best_gain()};
}

class RandomMoveScheduler final : public Scheduler {
 public:
  explicit RandomMoveScheduler(std::uint64_t seed) : rng_(seed) {}

  std::optional<Move> pick(const Game& game, const Configuration& s) override {
    // Count-then-select: one uniform draw over the same (miner, coin)
    // ordering the old materialized vector had, but without building (and
    // copying) n·|C| Move records with Rational gains every step.
    const std::size_t total = count_all_better_response_moves(game, s);
    if (total == 0) return std::nullopt;
    return nth_better_response_move(game, s, rng_.next_below(total));
  }

  std::optional<Move> pick_indexed(const Game& game, const Configuration& s,
                                   const BestResponseIndex& index) override {
    (void)game;
    (void)s;
    const std::size_t total = index.total_improving();
    if (total == 0) return std::nullopt;
    std::size_t n = rng_.next_below(total);
    for (const MinerId p : index.unstable()) {
      const std::size_t here = index.improving_count(p);
      if (n < here) return index.move_to(p, index.nth_improving(p, n));
      n -= here;
    }
    GOC_ASSERT(false, "improving-move counts out of sync");
    return std::nullopt;
  }
  std::string name() const override { return "random-move"; }

 private:
  Rng rng_;
};

class RandomMinerScheduler final : public Scheduler {
 public:
  explicit RandomMinerScheduler(std::uint64_t seed) : rng_(seed) {}

  std::optional<Move> pick(const Game& game, const Configuration& s) override {
    const std::vector<MinerId> unstable = unstable_miners(game, s);
    if (unstable.empty()) return std::nullopt;
    const MinerId p = unstable[rng_.pick_index(unstable)];
    const std::vector<CoinId> options = better_responses(game, s, p);
    GOC_ASSERT(!options.empty(), "unstable miner without better responses");
    const CoinId to = options[rng_.pick_index(options)];
    return Move{p, s.of(p), to, move_gain(game, s, p, to)};
  }

  std::optional<Move> pick_indexed(const Game& game, const Configuration& s,
                                   const BestResponseIndex& index) override {
    (void)game;
    (void)s;
    const std::vector<MinerId>& unstable = index.unstable();
    if (unstable.empty()) return std::nullopt;
    const MinerId p = unstable[rng_.pick_index(unstable)];
    const std::size_t options = index.improving_count(p);
    GOC_ASSERT(options > 0, "unstable miner without better responses");
    const CoinId to = index.nth_improving(p, rng_.next_below(options));
    return index.move_to(p, to);
  }
  std::string name() const override { return "random-miner"; }

 private:
  Rng rng_;
};

class RoundRobinScheduler final : public Scheduler {
 public:
  std::optional<Move> pick(const Game& game, const Configuration& s) override {
    const std::size_t n = game.num_miners();
    for (std::size_t scanned = 0; scanned < n; ++scanned) {
      const MinerId p(static_cast<std::uint32_t>(cursor_));
      cursor_ = (cursor_ + 1) % n;
      if (auto move = best_response_move(game, s, p)) return move;
    }
    return std::nullopt;
  }

  std::optional<Move> pick_indexed(const Game& game, const Configuration& s,
                                   const BestResponseIndex& index) override {
    (void)s;
    const std::size_t n = game.num_miners();
    for (std::size_t scanned = 0; scanned < n; ++scanned) {
      const MinerId p(static_cast<std::uint32_t>(cursor_));
      cursor_ = (cursor_ + 1) % n;
      if (!index.stable(p)) return index.best_move(p);
    }
    return std::nullopt;
  }
  std::string name() const override { return "round-robin"; }
  void reset() override { cursor_ = 0; }

 private:
  std::size_t cursor_ = 0;
};

/// Shared implementation for global gain-extremal schedulers.
template <bool kMax>
class GainExtremalScheduler final : public Scheduler {
 public:
  std::optional<Move> pick(const Game& game, const Configuration& s) override {
    std::vector<Move> moves = all_better_response_moves(game, s);
    if (moves.empty()) return std::nullopt;
    const auto better = [](const Move& a, const Move& b) {
      if (a.gain != b.gain) return kMax ? a.gain > b.gain : a.gain < b.gain;
      if (a.miner != b.miner) return a.miner < b.miner;
      return a.to < b.to;
    };
    return *std::min_element(moves.begin(), moves.end(),
                             [&](const Move& a, const Move& b) {
                               return better(a, b);
                             });
  }

  std::optional<Move> pick_indexed(const Game& game, const Configuration& s,
                                   const BestResponseIndex& index) override {
    // The extremal move over all improving (miner, coin) pairs decomposes
    // per miner: the max-gain move of a miner is its best response, the
    // min-gain move its lowest-payoff improving coin — with lowest-coin-id
    // ties inside the miner, and the unstable scan in miner-id order with
    // strict comparisons reproducing the lowest-miner-id tie-break.
    // Cross-miner gain comparisons are exact: each candidate's gain is an
    // unreduced `Fraction` difference of two payoffs (cross products, no
    // GCD), and only the winner's gain is reduced into its Move. A later
    // miner of an earlier one's (class, home) cell has the same candidate
    // and the same gain, so under the strict comparison it never wins and
    // is skipped.
    const std::size_t coins = game.num_coins();
    const std::size_t cells = index.num_classes() * coins;
    if (cell_round_.size() != cells) cell_round_.assign(cells, 0);
    ++round_;
    std::optional<MinerId> chosen;
    CoinId chosen_to;
    Fraction chosen_gain;
    for (const MinerId p : index.unstable()) {
      std::uint64_t& seen =
          cell_round_[index.class_of(p) * coins + s.of(p).value];
      if (seen == round_) continue;
      seen = round_;
      const CoinId to = kMax ? *index.best_of(p) : index.min_improving(p);
      const Fraction gain = game.payoff_fraction(s, p, to) -
                            game.payoff_fraction(s, p, s.of(p));
      if (!chosen || (kMax ? gain > chosen_gain : gain < chosen_gain)) {
        chosen = p;
        chosen_to = to;
        chosen_gain = gain;
      }
    }
    if (!chosen) return std::nullopt;
    return Move{*chosen, s.of(*chosen), chosen_to, chosen_gain.to_rational()};
  }
  std::string name() const override { return kMax ? "max-gain" : "min-gain"; }

 private:
  std::vector<std::uint64_t> cell_round_;  // last pick that met the cell
  std::uint64_t round_ = 0;
};

/// Power-ordered schedulers: the heaviest (or lightest) unstable miner takes
/// its best response; ties break on miner id.
template <bool kLargest>
class PowerOrderedScheduler final : public Scheduler {
 public:
  std::optional<Move> pick(const Game& game, const Configuration& s) override {
    const std::vector<MinerId> unstable = unstable_miners(game, s);
    if (unstable.empty()) return std::nullopt;
    return best_response_move(game, s, choose(game, unstable));
  }

  std::optional<Move> pick_indexed(const Game& game, const Configuration& s,
                                   const BestResponseIndex& index) override {
    (void)s;
    const std::vector<MinerId>& unstable = index.unstable();
    if (unstable.empty()) return std::nullopt;
    return index.best_move(choose(game, unstable));
  }
  std::string name() const override {
    return kLargest ? "largest-first" : "smallest-first";
  }

 private:
  static MinerId choose(const Game& game,
                        const std::vector<MinerId>& unstable) {
    const System& system = game.system();
    MinerId chosen = unstable.front();
    for (const MinerId p : unstable) {
      const bool strictly_better =
          kLargest ? system.power(p) > system.power(chosen)
                   : system.power(p) < system.power(chosen);
      if (strictly_better) chosen = p;
    }
    return chosen;
  }
};

class LexicographicScheduler final : public Scheduler {
 public:
  std::optional<Move> pick(const Game& game, const Configuration& s) override {
    // The first improving move in (miner id, coin id) order.
    return nth_better_response_move(game, s, 0);
  }

  std::optional<Move> pick_indexed(const Game& game, const Configuration& s,
                                   const BestResponseIndex& index) override {
    (void)game;
    (void)s;
    if (index.unstable().empty()) return std::nullopt;
    const MinerId miner = index.unstable().front();
    return index.move_to(miner, index.nth_improving(miner, 0));
  }
  std::string name() const override { return "lexicographic"; }
};

}  // namespace

const std::vector<SchedulerKind>& all_scheduler_kinds() {
  static const std::vector<SchedulerKind> kinds = {
      SchedulerKind::kRandomMove,   SchedulerKind::kRandomMiner,
      SchedulerKind::kRoundRobin,   SchedulerKind::kMaxGain,
      SchedulerKind::kMinGain,      SchedulerKind::kLargestFirst,
      SchedulerKind::kSmallestFirst, SchedulerKind::kLexicographic};
  return kinds;
}

const std::string& scheduler_kind_name(SchedulerKind kind) {
  // Interned: derived from Scheduler::name() once at first use instead of
  // constructing a scheduler object per call. Indexed by enum value (no
  // ordering assumption on all_scheduler_kinds()).
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const SchedulerKind k : all_scheduler_kinds()) {
      const auto index = static_cast<std::size_t>(k);
      if (names.size() <= index) names.resize(index + 1);
      names[index] = make_scheduler(k)->name();
    }
    return names;
  }();
  const auto index = static_cast<std::size_t>(kind);
  GOC_ASSERT(index < kNames.size() && !kNames[index].empty(),
             "unknown scheduler kind");
  return kNames[index];
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, std::uint64_t seed) {
  switch (kind) {
    case SchedulerKind::kRandomMove:
      return std::make_unique<RandomMoveScheduler>(seed);
    case SchedulerKind::kRandomMiner:
      return std::make_unique<RandomMinerScheduler>(seed);
    case SchedulerKind::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case SchedulerKind::kMaxGain:
      return std::make_unique<GainExtremalScheduler<true>>();
    case SchedulerKind::kMinGain:
      return std::make_unique<GainExtremalScheduler<false>>();
    case SchedulerKind::kLargestFirst:
      return std::make_unique<PowerOrderedScheduler<true>>();
    case SchedulerKind::kSmallestFirst:
      return std::make_unique<PowerOrderedScheduler<false>>();
    case SchedulerKind::kLexicographic:
      return std::make_unique<LexicographicScheduler>();
  }
  GOC_ASSERT(false, "unknown scheduler kind");
  return nullptr;
}

}  // namespace goc
