#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/generators.hpp"
#include "dynamics/learning.hpp"
#include "dynamics/scheduler.hpp"

/// Metamorphic oracles for better-response learning: exact invariances of
/// the paper's model, checked without any pinned value.
///
/// Miner p's payoff after moving to c is u = m_p·F(c)/(M_c + m_p) (its
/// current payoff m_p·F(c)/M_c). The relations, stated before the first
/// run:
///
///  * Powers × k (k > 0): every mass and power scales by k, so every
///    payoff is unchanged. Every better-response set, best response, tie
///    and gain is the same, so `steps`, `move_hash` and every move's gain
///    are exactly equal.
///  * Rewards × r (r > 0): every payoff, and so every gain, scales by r.
///    Comparisons between payoffs of one miner, and between gains of
///    different miners, keep their sign, so `steps` and `move_hash` are
///    equal and every gain is exactly r times the unscaled one.
///  * Both at once: as rewards × r.
///
/// The random schedulers draw from the same seeded stream, and each draw's
/// range is a count of equal sets, so they draw the same values. The
/// relations hold for all 8 schedulers on both the index path and the scan
/// path. Powers × 3/11 leaves the integers, so the comparator takes its
/// exact non-integer fallback; rewards × 13/5 stays on the rescaled
/// integer path. A failing case is a finding about the engine, not about
/// the seed.

namespace goc {
namespace {

/// Games with more miners than this run with the audit off.
constexpr std::size_t kAuditMaxMiners = 40;

struct Transform {
  std::string name;
  Rational powers;
  Rational rewards;
};

const std::vector<Transform>& transforms() {
  static const std::vector<Transform> all = {
      {"powers x7", Rational(7), Rational(1)},
      {"rewards x13/5", Rational(1), Rational(13, 5)},
      {"powers x3/11, rewards x13/5", Rational(3, 11), Rational(13, 5)},
  };
  return all;
}

Game transformed(const Game& g, const Transform& t) {
  std::vector<Rational> powers = g.system().powers();
  for (Rational& m : powers) m *= t.powers;
  std::vector<Rational> rewards = g.rewards().values();
  for (Rational& f : rewards) f *= t.rewards;
  return Game(System(std::move(powers), g.num_coins()),
              RewardFunction(std::move(rewards)), g.access());
}

LearningResult learn(const Game& g, const Configuration& start,
                     SchedulerKind kind, bool use_index) {
  LearningOptions options;
  options.use_index = use_index;
  options.record_moves = true;
  options.audit_potential = g.num_miners() <= kAuditMaxMiners;
  auto scheduler = make_scheduler(kind, 0xC0FFEE);
  return run_learning(g, start, *scheduler, options);
}

TEST(Metamorphic, LearningIsInvariantUnderPowerAndRewardScaling) {
  Rng rng(2021);
  std::size_t runs = 0;
  for (int trial = 0; trial < 24; ++trial) {
    GameSpec spec;
    spec.num_miners = 30 + static_cast<std::size_t>(rng.next_below(40));
    spec.num_coins = 2 + static_cast<std::size_t>(rng.next_below(4));
    spec.power_shape = PowerShape::kPareto;
    spec.power_lo = 10;
    spec.reward_lo = 100;
    spec.reward_hi = 100000;
    const Game g = random_game(spec, rng);
    const Configuration start = random_configuration(g, rng);
    for (const SchedulerKind kind : all_scheduler_kinds()) {
      for (const bool use_index : {true, false}) {
        const LearningResult base = learn(g, start, kind, use_index);
        ASSERT_TRUE(base.converged);
        for (const Transform& t : transforms()) {
          const Game h = transformed(g, t);
          const Configuration h_start(h.system_ptr(), start.assignment());
          const LearningResult scaled = learn(h, h_start, kind, use_index);
          const std::string where = "trial " + std::to_string(trial) + ", " +
                                    scheduler_kind_name(kind) +
                                    (use_index ? ", index, " : ", scan, ") +
                                    t.name;
          ++runs;
          ASSERT_EQ(scaled.steps, base.steps) << where;
          EXPECT_EQ(scaled.move_hash, base.move_hash) << where;
          EXPECT_TRUE(scaled.converged) << where;
          ASSERT_EQ(scaled.trace.size(), base.trace.size()) << where;
          for (std::size_t i = 0; i < base.trace.size(); ++i) {
            EXPECT_EQ(scaled.trace.moves()[i].gain,
                      base.trace.moves()[i].gain * t.rewards)
                << where << ", step " << i;
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 24u * 8u * 2u * 3u);
}

}  // namespace
}  // namespace goc
