#include "dynamics/improvement_graph.hpp"

#include <vector>

#include "core/enumerate.hpp"
#include "core/moves.hpp"
#include "util/assert.hpp"

namespace goc {
namespace {

/// Dense indices of configurations: the engine's odometer rank and its
/// inverse.
class Codec {
 public:
  Codec(const Game& game, std::uint64_t max_configs)
      : system_(game.system_ptr()),
        coins_(static_cast<std::uint32_t>(game.num_coins())) {
    const auto count = configuration_count(game.system());
    GOC_CHECK_ARG(count.has_value() && *count <= max_configs,
                  "configuration space too large to analyze");
    total_ = *count;
  }

  std::uint64_t total() const noexcept { return total_; }

  std::uint64_t encode(const Configuration& s) const {
    return odometer_rank(s.assignment(), coins_);
  }

  Configuration decode(std::uint64_t index) const {
    std::vector<std::uint32_t> digits(system_->num_miners());
    for (std::uint32_t& digit : digits) {
      digit = static_cast<std::uint32_t>(index % coins_);
      index /= coins_;
    }
    return materialize_configuration(system_, digits);
  }

 private:
  std::shared_ptr<const System> system_;
  std::uint32_t coins_;
  std::uint64_t total_;
};

/// Memoized longest-path evaluator over the improvement DAG (iterative
/// DFS; revisits recompute neighbor lists, trading CPU for stack safety).
class LongestPath {
 public:
  LongestPath(const Game& game, const Codec& codec)
      : game_(game), codec_(codec), memo_(codec.total(), -1) {}

  std::uint64_t eval(std::uint64_t root) {
    std::vector<std::uint64_t> stack{root};
    while (!stack.empty()) {
      const std::uint64_t v = stack.back();
      if (memo_[v] >= 0) {
        stack.pop_back();
        continue;
      }
      const Configuration s = codec_.decode(v);
      bool ready = true;
      std::int64_t best = 0;
      for (const Move& move : all_better_response_moves(game_, s)) {
        const std::uint64_t nb = codec_.encode(s.with_move(move.miner, move.to));
        if (memo_[nb] < 0) {
          stack.push_back(nb);
          ready = false;
        } else if (memo_[nb] + 1 > best) {
          best = memo_[nb] + 1;
        }
      }
      if (ready) {
        memo_[v] = best;
        stack.pop_back();
      }
    }
    return static_cast<std::uint64_t>(memo_[root]);
  }

 private:
  const Game& game_;
  const Codec& codec_;
  std::vector<std::int64_t> memo_;
};

}  // namespace

ImprovementGraphStats analyze_improvement_graph(const Game& game,
                                                std::uint64_t max_configs) {
  const Codec codec(game, max_configs);
  LongestPath solver(game, codec);
  ImprovementGraphStats stats;
  for (std::uint64_t index = 0; index < codec.total(); ++index) {
    const Configuration s = codec.decode(index);
    if (!game.respects_access(s)) continue;
    ++stats.configurations;
    const auto moves = all_better_response_moves(game, s);
    stats.edges += moves.size();
    if (moves.empty()) ++stats.equilibria;
    const std::uint64_t path = solver.eval(index);
    if (path > stats.longest_path) stats.longest_path = path;
  }
  return stats;
}

std::uint64_t longest_path_from(const Game& game, const Configuration& s,
                                std::uint64_t max_configs) {
  GOC_CHECK_ARG(game.respects_access(s),
                "configuration violates the game's access policy");
  const Codec codec(game, max_configs);
  LongestPath solver(game, codec);
  return solver.eval(codec.encode(s));
}

}  // namespace goc
