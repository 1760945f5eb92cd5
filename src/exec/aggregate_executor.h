#ifndef WIREFRAME_EXEC_AGGREGATE_EXECUTOR_H_
#define WIREFRAME_EXEC_AGGREGATE_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/answer_graph.h"
#include "core/fork_rule.h"
#include "exec/sink.h"
#include "planner/aggregate_planner.h"
#include "query/query_graph.h"
#include "util/result.h"
#include "util/timer.h"

namespace wireframe {

/// A count that survives past 2^64. The DP runs in u64 with explicit
/// overflow checks and reruns in saturating unsigned 128-bit arithmetic
/// the moment any add or multiply overflows — dense shapes genuinely
/// exceed u64, which is the point of counting on the factorized form
/// instead of enumerating it.
struct AggregateValue {
  uint64_t lo = 0;
  uint64_t hi = 0;
  /// True when even 128 bits overflowed: lo/hi then hold the saturated
  /// maximum and ToString() renders a ">=" bound. Surfaced per query in
  /// runtime::QueryReport.
  bool saturated = false;

  static AggregateValue FromU64(uint64_t v) { return {v, 0, false}; }

  bool IsZero() const { return lo == 0 && hi == 0; }
  bool ExceedsU64() const { return hi != 0 || saturated; }
  /// Exact decimal rendering; saturated values render as
  /// ">=340282366920938463463374607431768211455".
  std::string ToString() const;

  friend bool operator==(const AggregateValue&,
                         const AggregateValue&) = default;
};

/// One GROUP BY row: the group key (a data node of the grouped variable)
/// and its embedding count.
struct AggregateGroup {
  NodeId key = kInvalidNode;
  AggregateValue value;

  friend bool operator==(const AggregateGroup&,
                         const AggregateGroup&) = default;
};

/// Result of an aggregate query, scalar or grouped.
struct AggregateResult {
  AggregateKind kind = AggregateKind::kNone;
  /// The scalar answer: COUNT(*) over all embeddings, COUNT(DISTINCT)
  /// over the counted variable, 1/0 for ASK. For GROUP BY this is the
  /// ungrouped total (the sum over groups, saturating).
  AggregateValue value;
  /// ASK verdict (kAsk only).
  bool ask = false;
  /// GROUP BY rows, ascending by key; zero-count groups are omitted
  /// (they have no embedding to group).
  std::vector<AggregateGroup> groups;
  /// True when the factorized counting DP produced this result without
  /// materializing a single embedding; false for enumerate-then-count.
  bool factorized = false;
  /// Why the DP was declined (fallback runs only).
  std::string fallback_reason;

  /// Result rows this aggregate stands for: #groups when grouped, 1
  /// otherwise.
  uint64_t NumRows() const {
    return kind == AggregateKind::kCount && !groups.empty() ? groups.size()
                                                            : 1;
  }
};

/// Enumerate-then-count fallback: folds emitted embedding rows into the
/// same AggregateResult shape the DP produces. Engines run their normal
/// phase 2 into this when the plan is kEnumerate, and the equivalence
/// tests use it to certify DP results. ASK declines rows after the
/// first, stopping the enumeration early exactly like LimitSink. Rows
/// must be full var-indexed bindings (what the engines emit).
class EnumeratingAggregateSink : public Sink {
 public:
  explicit EnumeratingAggregateSink(const AggregateSpec& spec)
      : spec_(spec) {}

  bool Emit(const std::vector<NodeId>& binding) override;
  bool EmitBatch(const NodeId* rows, size_t n, size_t width,
                 size_t* handed) override;
  uint64_t count() const override { return rows_seen_; }
  /// Ungrouped COUNT(*) and ASK fold only the row count.
  bool ReadsOnlyCount() const override;

  /// Finalizes (sorts groups ascending) and returns the result.
  AggregateResult TakeResult();

 private:
  AggregateSpec spec_;
  uint64_t rows_seen_ = 0;
  std::unordered_set<NodeId> distinct_;
  std::unordered_map<NodeId, uint64_t> group_counts_;
};

struct AggregateExecutorOptions {
  Deadline deadline;
  /// The engine's fork rule (core/fork_rule.h): each DP sweep forks onto
  /// fork.pool() only when its keys clear the rule's floor at 64 keys
  /// per morsel, and otherwise runs its exact serial loop inline (the
  /// default rule never forks). Both paths give the same result.
  ForkRule fork;
  /// Cooperative cancellation, polled like the deadline. May be null.
  std::atomic<bool>* cancel = nullptr;
  /// Task-group scheduler weight on a shared pool.
  uint32_t weight = 1;
};

/// The factorized aggregate executor: evaluates COUNT(*),
/// COUNT(DISTINCT ?v), ASK, and GROUP BY ?v COUNT(*) directly on the
/// frozen CSR answer graph via the counting DP the AggregatePlanner
/// chose — AG-size-bound instead of output-size-bound, no embedding is
/// ever materialized.
class AggregateExecutor {
 public:
  AggregateExecutor(const QueryGraph& query, const AnswerGraph& ag)
      : query_(&query), ag_(&ag) {}

  /// Runs a kTreeDp or kCycleDp plan (kEnumerate is the caller's job —
  /// run phase 2 into an EnumeratingAggregateSink instead).
  Result<AggregateResult> Run(const AggregatePlan& plan,
                              const AggregateSpec& spec,
                              const AggregateExecutorOptions& options) const;

  /// The materialized chords of `ag`, in the shape the planner wants.
  static std::vector<ChordSlot> MaterializedChords(const AnswerGraph& ag);

 private:
  const QueryGraph* query_;
  const AnswerGraph* ag_;
};

}  // namespace wireframe

#endif  // WIREFRAME_EXEC_AGGREGATE_EXECUTOR_H_
