#ifndef WIREFRAME_CORE_FORK_RULE_H_
#define WIREFRAME_CORE_FORK_RULE_H_

#include <cstdint>

#include "util/thread_pool.h"

namespace wireframe {

/// The engine's one fork rule: a step goes onto the shared pool only
/// when its own input covers at least two morsels per pool thread;
/// otherwise it runs its serial path inline on the driver thread.
///
/// Every step that forks pays one task-group round trip, and the answer
/// graph of a selective query is a few hundred pairs: dispatch pays off
/// only when each morsel's work outweighs it (morsel-driven parallelism,
/// Leis et al., SIGMOD 2014). Each step counts its own input and names
/// its own morsel size:
///   - phase 1: an extension level's frontier items, a chord pass's
///     pairs, a burnback drain's seed deaths, the freeze's live pairs;
///   - phase 2: the defactorizer's first-edge pairs, the bushy
///     executor's common join keys, probe rows and result rows, and
///     each counting-DP sweep's keys.
/// The serial and the parallel path of every step produce the same
/// answer graph, rows, counts and counters, so the rule decides speed
/// only. The phase-1 generator builds its rule from GeneratorOptions;
/// WireframeEngine builds phase 2's once per run from the pool it leases.
class ForkRule {
 public:
  /// Never forks.
  ForkRule() = default;

  /// Forks onto `pool` (borrowed; null or single-threaded never forks).
  /// `force` is a test-only override: every step with any input forks,
  /// so fixture-sized inputs still drive every parallel path.
  explicit ForkRule(ThreadPool* pool, bool force = false)
      : pool_(pool != nullptr && pool->num_threads() > 1 ? pool : nullptr),
        force_(force) {}

  /// Fewest input items at which a step split into morsels of `morsel`
  /// items forks: 2 × morsel × pool threads (1 when forced, UINT64_MAX
  /// without a multi-threaded pool).
  uint64_t Floor(uint64_t morsel) const {
    if (pool_ == nullptr) return UINT64_MAX;
    if (force_) return 1;
    return 2 * morsel * pool_->num_threads();
  }

  /// True iff a step over `items` input items goes onto pool().
  bool Forks(uint64_t items, uint64_t morsel) const {
    return items >= Floor(morsel);
  }

  /// The pool forking steps run on; null when the rule never forks.
  ThreadPool* pool() const { return pool_; }

 private:
  ThreadPool* pool_ = nullptr;
  bool force_ = false;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_FORK_RULE_H_
