#include "core/wireframe.h"

#include "query/shape.h"
#include "util/timer.h"

namespace wireframe {

Status WireframeEngine::EmitEmbeddings(const QueryGraph& query,
                                       const AnswerGraph& ag,
                                       const EngineOptions& options,
                                       const ForkRule& fork, Sink* sink,
                                       WireframeRunDetail* detail) {
  bool emitted_by_bushy = false;
  if (options_.bushy_phase2) {
    BushyPlanner bushy_planner(query);
    Result<BushyPlan> bushy_plan = bushy_planner.Plan(ag.Stats());
    if (bushy_plan.ok()) {
      BushyExecutor executor(query, ag);
      BushyExecutorOptions bushy_options;
      bushy_options.deadline = options.deadline;
      bushy_options.fork = fork;
      bushy_options.cancel = options.runtime.cancel;
      bushy_options.weight = options.runtime.weight;
      WF_ASSIGN_OR_RETURN(detail->phase2_stats,
                          executor.Emit(*bushy_plan, sink, bushy_options));
      emitted_by_bushy = true;
      detail->used_bushy = true;
    }
    // Capped-out bushy DP falls through to the pipelined defactorizer.
  }
  EmbeddingPlanner embedding_planner(query);
  WF_ASSIGN_OR_RETURN(detail->embedding_plan,
                      embedding_planner.PlanJoinOrder(ag.Stats()));
  if (!emitted_by_bushy) {
    Defactorizer defactorizer(query, ag);
    DefactorizerOptions defac_options;
    defac_options.deadline = options.deadline;
    defac_options.use_chords = options_.chords_in_phase2;
    defac_options.fork = fork;
    defac_options.cancel = options.runtime.cancel;
    defac_options.weight = options.runtime.weight;
    WF_ASSIGN_OR_RETURN(
        detail->phase2_stats,
        defactorizer.Emit(detail->embedding_plan, sink, defac_options));
  }
  return Status::OK();
}

Status WireframeEngine::ExecutePhase2(const QueryGraph& query,
                                      const AnswerGraph& ag,
                                      const EngineOptions& options,
                                      const ForkRule& fork, Sink* sink,
                                      const Stopwatch& total,
                                      WireframeRunDetail* detail) {
  Stopwatch phase2_watch;
  const AggregateSpec& spec = query.aggregate();
  if (spec.kind == AggregateKind::kNone) {
    WF_RETURN_NOT_OK(EmitEmbeddings(query, ag, options, fork, sink, detail));
    detail->stats.output_tuples = detail->phase2_stats.emitted;
  } else {
    Stopwatch aggregate_watch;
    detail->has_aggregate = true;
    AggregatePlanner planner(query);
    const AggregatePlan plan =
        planner.Plan(spec, AggregateExecutor::MaterializedChords(ag));
    if (plan.mode != AggregateMode::kEnumerate) {
      AggregateExecutor executor(query, ag);
      AggregateExecutorOptions exec_options;
      exec_options.deadline = options.deadline;
      exec_options.fork = fork;
      exec_options.cancel = options.runtime.cancel;
      exec_options.weight = options.runtime.weight;
      WF_ASSIGN_OR_RETURN(detail->aggregate,
                          executor.Run(plan, spec, exec_options));
    } else {
      EnumeratingAggregateSink fold(spec);
      WF_RETURN_NOT_OK(
          EmitEmbeddings(query, ag, options, fork, &fold, detail));
      detail->aggregate = fold.TakeResult();
      detail->aggregate.fallback_reason = plan.reason;
    }
    detail->stats.aggregate_seconds = aggregate_watch.ElapsedSeconds();
    detail->stats.output_tuples = detail->aggregate.NumRows();
  }
  detail->stats.phase2_seconds = phase2_watch.ElapsedSeconds();
  detail->stats.seconds = total.ElapsedSeconds();
  detail->stats.ag_pairs = ag.TotalQueryEdgePairs();
  return Status::OK();
}

Result<WireframeRunDetail> WireframeEngine::RunDetailed(
    const Database& db, const Catalog& catalog, const QueryGraph& query,
    const EngineOptions& options, Sink* sink) {
  WireframeRunDetail detail;
  Stopwatch total;

  // One pool serves both phases: the shared runtime pool when this run is
  // part of a QueryRuntime, otherwise a private pool (threads==1, the
  // default, never builds one, so the serial paths run exactly as
  // before).
  PoolLease lease(options);
  ThreadPool* pool = lease.get();
  detail.threads = lease.threads();

  // --- Planning: Edgifier (+ Triangulator for cyclic queries). ---
  Stopwatch plan_watch;
  CardinalityEstimator estimator(catalog);
  Edgifier edgifier(query, estimator);
  WF_ASSIGN_OR_RETURN(detail.ag_plan, edgifier.PlanEdgeOrder());

  const QueryShape shape = AnalyzeShape(query);
  detail.cyclic = !shape.acyclic;
  if (!shape.acyclic && options_.triangulate) {
    Triangulator triangulator(query, estimator);
    WF_ASSIGN_OR_RETURN(Chordification chords,
                        triangulator.Triangulate(shape));
    detail.ag_plan.chords = std::move(chords.chords);
    detail.ag_plan.base_triangles = std::move(chords.base_triangles);
    detail.ag_plan.base_triangle_closing_edge =
        std::move(chords.base_triangle_closing_edge);
  }
  detail.plan_seconds = plan_watch.ElapsedSeconds();

  // --- Phase 1: answer-graph generation. ---
  Stopwatch phase1_watch;
  GeneratorOptions gen_options;
  gen_options.triangulate = options_.triangulate;
  gen_options.edge_burnback = options_.edge_burnback;
  gen_options.lookahead = options_.lookahead;
  gen_options.deadline = options.deadline;
  gen_options.pool = pool;
  gen_options.cancel = options.runtime.cancel;
  gen_options.weight = options.runtime.weight;
  AgGenerator generator(db, catalog);
  WF_ASSIGN_OR_RETURN(GeneratorResult gen,
                      generator.Generate(query, detail.ag_plan, gen_options));
  detail.stats.phase1_seconds = phase1_watch.ElapsedSeconds();
  detail.stats.burnback_seconds = gen.burnback_seconds;
  detail.stats.freeze_seconds = gen.freeze_seconds;
  detail.chord_pairs = gen.chord_pairs;
  detail.stats.edge_walks = gen.edge_walks;
  detail.stats.pairs_burned = gen.pairs_burned;
  detail.stats.burnback_depth = gen.burnback_depth;
  detail.stats.burnback_handoffs = gen.burnback_handoffs;

  // --- Phase 2: embeddings, or the factorized aggregate DP. ---
  WF_RETURN_NOT_OK(ExecutePhase2(query, *gen.ag, options, ForkRule(pool),
                                 sink, total, &detail));
  detail.ag = std::move(gen.ag);
  return detail;
}

Result<WireframeRunDetail> WireframeEngine::RunOverAg(
    const QueryGraph& query, const AnswerGraph& ag,
    const EngineOptions& options, Sink* sink) {
  WireframeRunDetail detail;
  Stopwatch total;

  PoolLease lease(options);
  detail.threads = lease.threads();
  detail.cyclic = !AnalyzeShape(query).acyclic;
  WF_RETURN_NOT_OK(ExecutePhase2(query, ag, options, ForkRule(lease.get()),
                                 sink, total, &detail));
  return detail;
}

Result<EngineStats> WireframeEngine::Run(const Database& db,
                                         const Catalog& catalog,
                                         const QueryGraph& query,
                                         const EngineOptions& options,
                                         Sink* sink) {
  WF_ASSIGN_OR_RETURN(WireframeRunDetail detail,
                      RunDetailed(db, catalog, query, options, sink));
  return detail.stats;
}

Result<std::string> WireframeEngine::Explain(const Database& db,
                                             const Catalog& catalog,
                                             const QueryGraph& query) {
  CardinalityEstimator estimator(catalog);
  Edgifier edgifier(query, estimator);
  WF_ASSIGN_OR_RETURN(AgPlan plan, edgifier.PlanEdgeOrder());

  const QueryShape shape = AnalyzeShape(query);
  if (!shape.acyclic && options_.triangulate) {
    Triangulator triangulator(query, estimator);
    WF_ASSIGN_OR_RETURN(Chordification chords,
                        triangulator.Triangulate(shape));
    plan.chords = std::move(chords.chords);
  }
  auto label_name = [&db](LabelId p) { return db.labels().Term(p); };
  std::string out = query.ToString(label_name) + "\n";
  out += shape.acyclic ? "shape: acyclic\n" : "shape: cyclic\n";
  out += plan.ToString(query, label_name);
  return out;
}

}  // namespace wireframe
