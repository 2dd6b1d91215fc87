/// \file bench_micro.cpp
/// Experiment E10 — core-operation microbenchmarks and the hot-loop
/// headline: better-response learning steps/sec, scan path vs the
/// incremental BestResponseIndex.
///
/// Not a paper artifact; these keep the exact-arithmetic core honest. The
/// headline table runs the same 1000-miner × 10-coin random-move learning
/// trajectory through both scheduler paths and reports the speedup; the
/// `--compare-scan` check (on by default) asserts the two paths picked
/// bit-identical move sequences (steps, FNV move hash, final
/// configuration) and the binary exits nonzero if they diverged.
///
/// Self-contained harness (no google-benchmark): supports `--quick`,
/// `--json=<base>` / `--csv=<base>`, `--miners/--coins/--steps/--seed`,
/// `--compare-scan=false`.

#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/generators.hpp"
#include "core/moves.hpp"
#include "dynamics/best_response_index.hpp"
#include "dynamics/learning.hpp"
#include "market/fee_market.hpp"
#include "potential/list_potential.hpp"
#include "sim/event_core.hpp"

namespace {

using namespace goc;

Game make_game(std::size_t miners, std::size_t coins, std::uint64_t seed) {
  Rng rng(seed);
  GameSpec spec;
  spec.num_miners = miners;
  spec.num_coins = coins;
  spec.power_shape = PowerShape::kPareto;
  spec.power_lo = 10;
  spec.reward_lo = 100;
  spec.reward_hi = 100000;
  return random_game(spec, rng);
}

/// Times `op` over `iters` iterations and appends an ops-table row.
void time_op(Table& table, const std::string& name, std::size_t iters,
             const std::function<void()>& op) {
  bench::Stopwatch watch;
  for (std::size_t i = 0; i < iters; ++i) op();
  const double ms = watch.elapsed_ms();
  table.row() << name << std::uint64_t(iters) << fmt_double(ms, 2)
              << fmt_double(ms * 1e6 / static_cast<double>(iters), 1);
}

struct PathRun {
  LearningResult learned;
  double ms = 0.0;
};

PathRun run_path(const Game& game, const Configuration& start,
                 std::uint64_t scheduler_seed, bool use_index,
                 std::uint64_t max_steps) {
  auto scheduler = make_scheduler(SchedulerKind::kRandomMove, scheduler_seed);
  LearningOptions options;
  options.use_index = use_index;
  options.max_steps = max_steps;
  bench::Stopwatch watch;
  LearningResult learned = run_learning(game, start, *scheduler, options);
  return PathRun{std::move(learned), watch.elapsed_ms()};
}

int run(int argc, char** argv) {
  const Cli cli = bench::parse_cli(
      argc, argv,
      {"quick", "miners", "coins", "steps", "seed", "compare-scan"});
  const bool quick = cli.get_bool("quick", false);
  const std::size_t miners = cli.get_u64("miners", quick ? 200 : 1000);
  const std::size_t coins = cli.get_u64("coins", quick ? 6 : 10);
  const std::uint64_t steps = cli.get_u64("steps", quick ? 200 : 600);
  const std::uint64_t seed = cli.get_u64("seed", 42);
  const bool compare_scan = cli.get_bool("compare-scan", true);

  bench::banner(
      "E10 — core-op microbenchmarks + hot-loop scan-vs-index headline",
      "Exact-arithmetic core operations, then random-move learning steps/sec "
      "through the scan path vs the incremental BestResponseIndex on the "
      "same trajectory.");

  // ------------------------------------------------------- core operations
  const std::size_t base_iters = quick ? 20000 : 200000;
  Table ops({"op", "iters", "total_ms", "ns_per_op"});
  {
    const Game game = make_game(1000, 8, seed);
    Rng rng(1);
    Configuration s = random_configuration(game, rng);
    std::uint32_t p = 0;
    time_op(ops, "payoff_eval(n=1000)", base_iters, [&] {
      volatile bool sink = game.payoff(s, MinerId(p)).is_positive();
      (void)sink;
      p = (p + 1) % 1000;
    });
    p = 0;
    time_op(ops, "best_response_scan(n=1000,|C|=8)", base_iters / 50, [&] {
      volatile bool sink = best_response(game, s, MinerId(p)).has_value();
      (void)sink;
      p = (p + 1) % 1000;
    });
    time_op(ops, "index_build(n=1000,|C|=8)", quick ? 20 : 200, [&] {
      dynamics::BestResponseIndex index(game, s);
      volatile bool sink = index.at_equilibrium();
      (void)sink;
    });
    p = 0;
    time_op(ops, "move_apply(n=1000)", base_iters, [&] {
      const CoinId to(
          static_cast<std::uint32_t>((s.of(MinerId(p)).value + 1) % 8));
      s.move(MinerId(p), to);
      p = (p + 1) % 1000;
    });
    time_op(ops, "potential_key(n=1000,|C|=8)", quick ? 200 : 2000, [&] {
      volatile bool sink = potential_key(game, s).entries().empty();
      (void)sink;
    });
  }
  {
    // One full index audit on an E3-shaped game: the per-step check of an
    // audited e3-sweep task.
    const Game game = make_game(100, 3, seed);
    Rng rng(2);
    const Configuration s = random_configuration(game, rng);
    const dynamics::BestResponseIndex index(game, s);
    time_op(ops, "index_audit(n=100,|C|=3)", base_iters / 100,
            [&] { index.audit(); });
    // One indexed min-gain pick on the same state: a gain comparison per
    // unstable miner, one Move built.
    const auto min_gain = make_scheduler(SchedulerKind::kMinGain);
    time_op(ops, "min_gain_pick(n=100,|C|=3)", base_iters / 20, [&] {
      volatile bool sink = min_gain->pick_indexed(game, s, index).has_value();
      (void)sink;
    });
  }
  {
    // Index sync per move on E3-shaped trajectories (Pareto powers, 3
    // coins): a random-move learning path of up to 1000 moves, replayed
    // forward and then undone move by move, each move followed by a sync.
    for (const std::size_t n : {std::size_t{300}, std::size_t{3000}}) {
      const Game game = make_game(n, 3, seed);
      Rng rng(3);
      Configuration s = random_configuration(game, rng);
      auto scheduler = make_scheduler(SchedulerKind::kRandomMove, seed);
      LearningOptions options;
      options.record_moves = true;
      options.max_steps = 1000;
      const LearningResult path = run_learning(game, s, *scheduler, options);
      std::vector<std::pair<MinerId, CoinId>> replay;
      for (const Move& move : path.trace.moves()) {
        replay.emplace_back(move.miner, move.to);
      }
      for (auto it = path.trace.moves().rbegin();
           it != path.trace.moves().rend(); ++it) {
        replay.emplace_back(it->miner, it->from);
      }
      dynamics::BestResponseIndex index(game, s);
      std::size_t i = 0;
      time_op(ops, "index_sync(n=" + std::to_string(n) + ",|C|=3)",
              base_iters / 10, [&] {
                s.move(replay[i].first, replay[i].second);
                index.sync(s);
                i = (i + 1) % replay.size();
              });
    }
  }
  {
    const Rational a(123456789, 987654321);
    const Rational b(123456788, 987654321);
    time_op(ops, "rational_cmp_fast", base_iters, [&] {
      volatile bool sink = a < b;
      (void)sink;
    });
    const Rational big_a = Rational::from_parts(
        (static_cast<i128>(1) << 100) + 1, (static_cast<i128>(1) << 99) + 7);
    const Rational big_b = Rational::from_parts(
        (static_cast<i128>(1) << 100) + 3, (static_cast<i128>(1) << 99) + 5);
    time_op(ops, "rational_cmp_huge", base_iters / 10, [&] {
      volatile bool sink = big_a < big_b;
      (void)sink;
    });
    // Products of operands at or above 2^31 whose parts share cross
    // factors: the cross-reduced branch of `operator*`.
    std::vector<std::pair<Rational, Rational>> factors;
    Rng rng(seed);
    const auto part = [&] {  // odd, 36 bits, top bit set
      return static_cast<i128>((rng.next() >> 28) | (std::uint64_t{1} << 35) |
                               1);
    };
    for (int i = 0; i < 1024; ++i) {
      const i128 f = static_cast<i128>((rng.next() >> 52) | 1);
      const i128 g = static_cast<i128>((rng.next() >> 52) | 1);
      factors.emplace_back(Rational::from_parts(part() * f, part() * g),
                           Rational::from_parts(part() * g, part() * f));
    }
    std::size_t i = 0;
    time_op(ops, "rational_mul_cross", base_iters, [&] {
      volatile bool sink = (factors[i].first * factors[i].second).is_integer();
      (void)sink;
      i = (i + 1) % factors.size();
    });
  }
  {
    // 64-bit operand pairs sharing a random odd factor below 2^24: the
    // GCD under every `Rational` normalization, bare and through
    // `from_parts`.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs(1024);
    Rng rng(seed);
    for (auto& [x, y] : pairs) {
      const std::uint64_t common = (rng.next() >> 40) | 1;
      x = (rng.next() >> 24) * common;
      y = ((rng.next() >> 24) | 1) * common;
    }
    std::size_t i = 0;
    time_op(ops, "gcd64", base_iters, [&] {
      volatile std::uint64_t sink = gcd64(pairs[i].first, pairs[i].second);
      (void)sink;
      i = (i + 1) % pairs.size();
    });
    i = 0;
    time_op(ops, "rational_normalize", base_iters, [&] {
      volatile bool sink =
          Rational::from_parts(static_cast<i128>(pairs[i].first),
                               static_cast<i128>(pairs[i].second))
              .is_integer();
      (void)sink;
      i = (i + 1) % pairs.size();
    });
  }
  {
    // The chain simulator's block loop on the reference chain's streams
    // (128 chains and the decision epoch): pop the earliest race, then
    // re-arm the dispatched stream with one exponential draw.
    constexpr std::uint32_t kChains = 128;
    sim::EventCore core;
    core.declare_streams(sim::EventType::kBlockFound, kChains);
    core.declare_streams(sim::EventType::kDecisionEpoch, 1);
    Rng rng(seed);
    const auto rate = [](std::uint32_t subject) {
      return 1.0 + static_cast<double>(subject % 16);
    };
    for (std::uint32_t c = 0; c < kChains; ++c) {
      core.schedule(rng.exponential(rate(c)), sim::EventType::kBlockFound, c);
    }
    core.schedule(rng.exponential(rate(0)), sim::EventType::kDecisionEpoch, 0);
    sim::Event event;
    time_op(ops, "event_rearm(streams=129)", base_iters, [&] {
      core.pop_until(event, std::numeric_limits<double>::infinity());
      core.schedule(core.now() + rng.exponential(rate(event.subject)),
                    event.type, event.subject);
    });
  }
  {
    // One market epoch of random_market_prototype's busiest coin: ~3 000
    // fee arrivals, each one Pareto fee and one clock uniform.
    market::FeeMarket fees(3000.0, 0.0002, 1.8);
    Rng rng(seed);
    time_op(ops, "fee_accrue(rate=3000,dt=1h)", base_iters / 200, [&] {
      volatile double sink = fees.accrue(1.0, rng);
      (void)sink;
    });
  }
  bench::emit(cli, ops, "Core operations", "ops");

  // ------------------------------------------------- hot-loop headline
  const Game game = make_game(miners, coins, seed);
  Rng rng(seed ^ 0x5eed);
  const Configuration start = random_configuration(game, rng);
  const std::uint64_t scheduler_seed = seed * 7919 + 1;

  const PathRun indexed =
      run_path(game, start, scheduler_seed, /*use_index=*/true, steps);
  const PathRun scan =
      run_path(game, start, scheduler_seed, /*use_index=*/false, steps);

  const auto steps_per_sec = [](const PathRun& r) {
    return r.ms > 0.0 ? 1e3 * static_cast<double>(r.learned.steps) / r.ms : 0.0;
  };
  Table hot({"path", "miners", "coins", "steps", "ms", "steps_per_sec",
             "speedup"});
  const double scan_rate = steps_per_sec(scan);
  const double index_rate = steps_per_sec(indexed);
  hot.row() << "scan" << std::uint64_t(miners) << std::uint64_t(coins)
            << std::uint64_t(scan.learned.steps) << fmt_double(scan.ms, 1)
            << fmt_double(scan_rate, 0) << fmt_double(1.0, 2);
  hot.row() << "index" << std::uint64_t(miners) << std::uint64_t(coins)
            << std::uint64_t(indexed.learned.steps)
            << fmt_double(indexed.ms, 1) << fmt_double(index_rate, 0)
            << fmt_double(scan_rate > 0.0 ? index_rate / scan_rate : 0.0, 2);
  bench::emit(cli, hot,
              "Random-move learning hot loop (same trajectory, both paths; "
              "speedup = index over the exact scan)",
              "hotloop");

  if (compare_scan) {
    const bool identical =
        scan.learned.steps == indexed.learned.steps &&
        scan.learned.move_hash == indexed.learned.move_hash &&
        scan.learned.final_configuration == indexed.learned.final_configuration;
    std::cout << "[compare-scan: move sequences "
              << (identical ? "bit-identical" : "DIVERGED") << " over "
              << scan.learned.steps << " steps]\n";
    if (!identical) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
