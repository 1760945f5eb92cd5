#ifndef WIREFRAME_CORE_BUSHY_EXECUTOR_H_
#define WIREFRAME_CORE_BUSHY_EXECUTOR_H_

#include <atomic>

#include "core/answer_graph.h"
#include "core/defactorizer.h"
#include "core/fork_rule.h"
#include "exec/sink.h"
#include "planner/bushy_planner.h"
#include "query/query_graph.h"
#include "util/result.h"
#include "util/timer.h"

namespace wireframe {

/// Options for bushy execution.
struct BushyExecutorOptions {
  Deadline deadline;
  /// Intermediate-memory budget in binding cells (rows x width); exceeding
  /// it aborts with OutOfRange, mirroring the materializing baselines.
  /// The root join's rows stream to the sink and are not counted.
  uint64_t max_cells = 400ull << 20;
  /// The engine's fork rule (core/fork_rule.h), asked once per step with
  /// that step's own input: a leaf-merge gather forks on its common join
  /// keys, a hash join's probe on its probe rows, and a single-edge
  /// plan's leaf on its rows; below the rule's floor the step runs its
  /// exact serial path inline (the default rule never forks). Forked
  /// inner joins write per-morsel row chunks concatenated in morsel
  /// order, so every intermediate relation is bit-identical to the
  /// serial run; a forked root emits through per-worker SinkShards.
  ForkRule fork;
  /// Optional cooperative cancellation (borrowed, may be null): polled on
  /// the same amortized cadence as the deadline; once set, execution
  /// stops and Emit returns Status::Cancelled.
  std::atomic<bool>* cancel = nullptr;
  /// Scheduler weight of every task-group this run submits to the pool
  /// (service class of the owning query; see ParallelForOptions::weight).
  uint32_t weight = 1;
};

/// Executes a BushyPlan over the answer graph: leaves scan AG edge sets,
/// inner nodes hash-join their children on the shared variables, fully
/// materializing each intermediate (that is what distinguishes the bushy
/// plan space from the pipelined left-deep Defactorizer; the DP's job is
/// to keep those intermediates small). The root join alone is never
/// materialized: its rows go to the sink as it produces them.
class BushyExecutor {
 public:
  BushyExecutor(const QueryGraph& query, const AnswerGraph& ag)
      : query_(&query), ag_(&ag) {}

  /// Runs the plan, emitting every embedding to `sink`. The stats reuse
  /// DefactorizerStats: `extensions` counts materialized intermediate
  /// rows (the bushy analogue of tuple-extension work), and `forked` is
  /// true iff any step forked.
  Result<DefactorizerStats> Emit(const BushyPlan& plan, Sink* sink,
                                 const BushyExecutorOptions& options) const;

 private:
  const QueryGraph* query_;
  const AnswerGraph* ag_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_BUSHY_EXECUTOR_H_
