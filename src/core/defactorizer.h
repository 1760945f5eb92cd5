#ifndef WIREFRAME_CORE_DEFACTORIZER_H_
#define WIREFRAME_CORE_DEFACTORIZER_H_

#include <atomic>

#include "core/answer_graph.h"
#include "core/fork_rule.h"
#include "exec/sink.h"
#include "planner/plan.h"
#include "query/query_graph.h"
#include "util/result.h"
#include "util/timer.h"

namespace wireframe {

/// Phase-2 options.
struct DefactorizerOptions {
  Deadline deadline;
  /// The engine's fork rule (core/fork_rule.h). Enumeration forks onto
  /// fork.pool() only when the first join edge's AG pairs clear the
  /// rule's floor at 64 pairs per morsel; otherwise the exact serial
  /// path runs inline (the default rule never forks). A forked run
  /// partitions the first edge's pairs: each worker owns a full
  /// recursive enumeration context and a SinkShard, so the shared sink
  /// is only locked at batch granularity. The embedding multiset and the
  /// stats are identical on both paths and for every thread count; only
  /// emission order differs.
  ForkRule fork;
  /// Optional cooperative cancellation (borrowed, may be null): polled on
  /// the same amortized cadence as the deadline; once set, enumeration
  /// stops and Emit returns Status::Cancelled (rows already handed to the
  /// sink stay emitted).
  std::atomic<bool>* cancel = nullptr;
  /// Scheduler weight of every task-group this run submits to the pool
  /// (service class of the owning query; see ParallelForOptions::weight).
  uint32_t weight = 1;
  /// Use materialized chord pair sets as early filters: as soon as both
  /// endpoints of a chord are bound, a binding not in the chord set is
  /// abandoned. Sound (chord sets are supersets of the embedding
  /// projections) and realizes §6's promise that "triangulation promises
  /// to reduce [embedding-generation cost] significantly" — the chord
  /// check cuts dead branches that a non-ideal AG would otherwise explore
  /// to the end. No effect on acyclic queries (no chords).
  bool use_chords = true;
};

/// Phase-2 counters.
struct DefactorizerStats {
  /// Embeddings emitted to the sink.
  uint64_t emitted = 0;
  /// Tuple-extension steps performed (binding attempts across all
  /// depths); over an ideal AG this is proportional to emitted.
  uint64_t extensions = 0;
  /// Branches cut by a chord filter before reaching full depth.
  uint64_t chord_rejections = 0;
  /// True iff the run forked onto the pool (the fork rule's decision;
  /// the only field that differs between the two paths).
  bool forked = false;
};

/// Embedding generation (paper §3): joins the answer graph's edge sets in
/// the embedding plan's order to enumerate the CQ's embedding tuples.
///
/// Execution is pipelined (depth-first): each tuple is extended edge by
/// edge without materializing intermediates, so for an acyclic CQ over the
/// ideal AG the work is proportional to the output — no partial tuple is
/// ever abandoned, which is the paper's "no k-ary tuple is ever eliminated
/// during a join" guarantee. For cyclic CQs over non-ideal AGs some
/// branches die; the embedding planner's join order and the chord filters
/// minimize that.
///
/// Read path: the AG is the frozen one phase 1 ends with, so every
/// extension scans an immutable sorted CSR span (util/csr.h: a
/// direct-indexed offset lookup plus a cache-linear span), and every
/// chord filter is a span intersection or a Contains probe on one.
class Defactorizer {
 public:
  Defactorizer(const QueryGraph& query, const AnswerGraph& ag)
      : query_(&query), ag_(&ag) {}

  /// Enumerates all embeddings in `plan.join_order`, emitting each full
  /// binding to `sink`. Returns counters (or TimedOut). Stops early, with
  /// OK, when the sink declines more rows.
  Result<DefactorizerStats> Emit(const EmbeddingPlan& plan, Sink* sink,
                                 const DefactorizerOptions& options) const;

 private:
  const QueryGraph* query_;
  const AnswerGraph* ag_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_DEFACTORIZER_H_
