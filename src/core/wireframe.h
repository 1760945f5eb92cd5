#ifndef WIREFRAME_CORE_WIREFRAME_H_
#define WIREFRAME_CORE_WIREFRAME_H_

#include <memory>
#include <string>

#include "core/bushy_executor.h"
#include "core/defactorizer.h"
#include "core/fork_rule.h"
#include "core/generator.h"
#include "exec/aggregate_executor.h"
#include "exec/engine.h"
#include "planner/edgifier.h"
#include "planner/embedding_planner.h"
#include "planner/triangulator.h"
#include "util/timer.h"

namespace wireframe {

/// Wireframe-specific knobs beyond EngineOptions.
struct WireframeOptions {
  /// Chordify cyclic queries (Triangulator). Acyclic queries ignore this.
  bool triangulate = true;
  /// Run edge burnback after chord materialization (paper future work;
  /// off reproduces the paper's experimental configuration).
  bool edge_burnback = false;
  /// One-step lookahead existence filter during edge extension (see
  /// GeneratorOptions::lookahead). On by default for the engine: it is
  /// sound, changes no result or final AG, and removes most add-then-burn
  /// churn from phase 1.
  bool lookahead = true;
  /// Check materialized chord sets during defactorization (the paper §6:
  /// "Triangulation promises to reduce this significantly"). Sound; only
  /// affects cyclic queries evaluated with triangulation.
  bool chords_in_phase2 = true;
  /// Use the bushy phase-2 planner/executor (paper §6's richer plan
  /// space) instead of the pipelined left-deep defactorizer. Falls back
  /// to pipelined when the bushy DP is capped out. Default off: pipelined
  /// enumeration over the iAG is already output-optimal for acyclic CQs;
  /// bench_ablation_bushy measures where bushy pays.
  bool bushy_phase2 = false;
};

/// Detailed result of one Wireframe run, superset of EngineStats: exposes
/// phase timings and the AG itself for benches and tests.
struct WireframeRunDetail {
  /// Includes the phase wall-time split (stats.phase1_seconds and
  /// friends) — EngineStats is the single copy of those numbers.
  EngineStats stats;
  double plan_seconds = 0.0;
  DefactorizerStats phase2_stats;
  /// True if the bushy executor produced the embeddings.
  bool used_bushy = false;
  /// Resolved worker-thread count the run used (EngineOptions::threads
  /// with 0 mapped to the hardware core count).
  uint32_t threads = 1;
  uint64_t chord_pairs = 0;
  bool cyclic = false;
  /// The frozen answer graph (query edges, plus chords when used).
  std::unique_ptr<AnswerGraph> ag;
  AgPlan ag_plan;
  EmbeddingPlan embedding_plan;
  /// Aggregate result, filled when the query carries an AggregateSpec
  /// (kind != kNone): the factorized counting DP's answer when the plan
  /// was DP-eligible, the enumerate-then-count fold otherwise
  /// (aggregate.factorized says which; stats.aggregate_seconds holds
  /// the wall time either way).
  bool has_aggregate = false;
  AggregateResult aggregate;
};

/// The prototype system (paper §5): a two-phase, cost-based evaluator for
/// SPARQL conjunctive queries. Phase 1 plans (Edgifier + Triangulator) and
/// generates the answer graph; phase 2 plans (greedy, on exact AG
/// statistics) and generates the embeddings.
class WireframeEngine : public Engine {
 public:
  explicit WireframeEngine(WireframeOptions options = {})
      : options_(options) {}

  std::string_view name() const override { return "WF"; }
  bool SupportsThreads() const override { return true; }

  Result<EngineStats> Run(const Database& db, const Catalog& catalog,
                          const QueryGraph& query, const EngineOptions& options,
                          Sink* sink) override;

  /// Like Run but returns phase-level details and the answer graph.
  Result<WireframeRunDetail> RunDetailed(const Database& db,
                                         const Catalog& catalog,
                                         const QueryGraph& query,
                                         const EngineOptions& options,
                                         Sink* sink);

  /// Phase 2 only, over an already-generated answer graph (the runtime's
  /// AG cache hit path): plans embeddings from the AG's exact statistics
  /// and emits through the same defactorizer / bushy executor as
  /// RunDetailed, honoring the deadline/cancel/pool/weight in `options`.
  /// `ag` is borrowed and must belong to `query`'s shape; it may be read
  /// concurrently by any number of other runs. The
  /// returned detail has zero phase-1/burnback/freeze seconds and a null
  /// `ag` field (the caller already owns it).
  Result<WireframeRunDetail> RunOverAg(const QueryGraph& query,
                                       const AnswerGraph& ag,
                                       const EngineOptions& options,
                                       Sink* sink);

  /// Renders the two plans for a query without executing (EXPLAIN).
  Result<std::string> Explain(const Database& db, const Catalog& catalog,
                              const QueryGraph& query);

  const WireframeOptions& wireframe_options() const { return options_; }

 private:
  /// Shared phase-2 body and stats tail of RunDetailed and RunOverAg:
  /// routes aggregate queries to the factorized counting DP
  /// (enumerate-then-count when the plan declines) and plain SELECTs to
  /// the bushy/pipelined embedding executors, then fills the phase-2
  /// time, the total time since `total` started, the output tuples and
  /// |AG|. An aggregate answer lands in `detail->aggregate` only; no
  /// row of it reaches `sink`. `fork` is phase 2's one fork rule, which
  /// RunDetailed and RunOverAg each build once from their leased pool.
  Status ExecutePhase2(const QueryGraph& query, const AnswerGraph& ag,
                       const EngineOptions& options, const ForkRule& fork,
                       Sink* sink, const Stopwatch& total,
                       WireframeRunDetail* detail);
  /// The plain embedding-enumeration phase 2 (bushy when configured and
  /// plannable, pipelined defactorizer otherwise).
  Status EmitEmbeddings(const QueryGraph& query, const AnswerGraph& ag,
                        const EngineOptions& options, const ForkRule& fork,
                        Sink* sink, WireframeRunDetail* detail);

  WireframeOptions options_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_WIREFRAME_H_
