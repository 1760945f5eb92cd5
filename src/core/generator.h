#ifndef WIREFRAME_CORE_GENERATOR_H_
#define WIREFRAME_CORE_GENERATOR_H_

#include <atomic>
#include <functional>
#include <memory>

#include "catalog/catalog.h"
#include "core/answer_graph.h"
#include "planner/plan.h"
#include "planner/triangulator.h"
#include "query/query_graph.h"
#include "storage/database.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace wireframe {

/// One observable step of answer-graph generation, for tracing (the
/// Fig. 2 walkthrough bench prints these) and diagnostics.
struct GeneratorTraceStep {
  enum class Kind { kExtension, kChord, kEdgeBurnback };
  Kind kind = Kind::kExtension;
  /// Query-edge index (kExtension) or chord index (kChord); unused for
  /// kEdgeBurnback.
  uint32_t index = 0;
  uint64_t pairs_added = 0;
  uint64_t pairs_burned = 0;
  /// |AG| over query edges after the step.
  uint64_t ag_size_after = 0;
};

/// Phase-1 configuration.
struct GeneratorOptions {
  /// Chordify cycles and materialize chords (cyclic queries only).
  bool triangulate = true;
  /// Run the edge-burnback fixpoint after chord materialization. The
  /// paper's experiments leave this off ("our evaluation over cyclic CQs
  /// is without edge burnback"); on, the AG is ideal even for cyclic CQs.
  bool edge_burnback = false;
  /// One-step lookahead existence filter: when an extension reaches a
  /// previously untouched variable, reject pairs whose fresh endpoint has
  /// no data edge at all for some still-unmaterialized incident pattern.
  /// Sound (such pairs are certain to burn back later) and cheap (one
  /// index probe per future pattern); it converts add-then-burn churn
  /// into never-adding. Off by default here so the raw generator traces
  /// the paper's Fig. 2 exactly; WireframeOptions enables it for the
  /// engine. bench_ablation_lookahead quantifies the effect.
  bool lookahead = false;
  Deadline deadline;
  /// Worker pool for phase 1 (not owned). Null or single-threaded runs
  /// every step serially. Otherwise each step — an extension level, a
  /// chord pass, a burnback drain, the freeze — forks onto the pool only
  /// when its own input covers at least two morsels per pool thread
  /// (ForkRule, core/fork_rule.h) and runs inline below that. A forked
  /// extension level partitions its frontier into morsels whose workers
  /// fill thread-local PairSetShards; shards merge in morsel order at the
  /// level barrier, which is the inline insertion order, so the answer
  /// graph — including adjacency order while it is built — is identical
  /// whichever path each step takes and for every thread count.
  ThreadPool* pool = nullptr;
  /// Optional cooperative cancellation (borrowed, may be null): polled on
  /// the same amortized cadence as the deadline; once set, generation
  /// stops and Generate returns Status::Cancelled.
  std::atomic<bool>* cancel = nullptr;
  /// Scheduler weight of every task-group this run submits to `pool`
  /// (service class of the owning query; see ParallelForOptions::weight).
  uint32_t weight = 1;
  /// Test-only override of the fork rule: every phase-1 step with any
  /// input forks onto a multi-threaded `pool`, so fixture-sized inputs
  /// still drive every parallel path (ForkRule's `force`).
  bool force_parallel = false;
  /// Optional step observer.
  std::function<void(const GeneratorTraceStep&)> trace;
};

/// Phase-1 output: the frozen answer graph plus cost accounting.
struct GeneratorResult {
  /// Frozen: Freeze is the last step of Generate, so phase 2 only ever
  /// reads CSR spans. Held by pointer so the engine can hand it on.
  std::unique_ptr<AnswerGraph> ag;
  uint64_t edge_walks = 0;
  uint64_t pairs_burned = 0;
  uint64_t chord_pairs = 0;
  bool used_chords = false;
  /// Deepest cascade level node burnback reached (seeds are depth 1; 0
  /// when nothing burned). Schedule-dependent under the parallel drain.
  uint32_t burnback_depth = 0;
  /// Cascade deaths handed across worklist partitions by the parallel
  /// drain (0 on serial drains). Schedule-dependent.
  uint64_t burnback_handoffs = 0;
  /// Wall seconds inside node burnback (seed scans + cascade drains,
  /// chord-materialization pruning included).
  double burnback_seconds = 0.0;
  /// Wall seconds spent freezing the AG.
  double freeze_seconds = 0.0;
};

/// Executes the answer-graph generation phase (paper §3): for each query
/// edge of the plan, an edge-extension step pulls matching labeled edges
/// from G constrained by the current AG node sets, then cascading node
/// burnback removes nodes that failed to extend. For cyclic queries the
/// plan's chords are then materialized; edge burnback optionally culls
/// spurious edges down to the ideal AG. Phase 1 builds into an
/// AnswerGraphBuilder and ends by freezing it into the AnswerGraph that
/// phase 2 reads.
class AgGenerator {
 public:
  AgGenerator(const Database& db, const Catalog& catalog)
      : db_(&db), catalog_(&catalog) {}

  /// Runs phase 1 under `plan`. The plan's edge_order must be a
  /// permutation of the query's edges.
  Result<GeneratorResult> Generate(const QueryGraph& query, const AgPlan& plan,
                                   const GeneratorOptions& options) const;

 private:
  const Database* db_;
  const Catalog* catalog_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_GENERATOR_H_
