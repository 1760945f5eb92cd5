#include "core/generator.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/burnback.h"
#include "core/chords.h"
#include "util/interrupt.h"
#include "util/logging.h"

namespace wireframe {

namespace {

/// Extension probes check the deadline on this cadence to stay cheap.
constexpr uint32_t kDeadlineStride = 4096;

/// Frontier items (candidate nodes, or distinct subjects on a cold
/// start) per morsel during parallel extension. Each item expands into a
/// full neighbor scan, so morsels stay small enough to balance skewed
/// degree distributions.
constexpr uint64_t kFrontierMorsel = 256;

/// Snapshots the candidate set of `v` (in ForEachCandidate order, which
/// the parallel path must preserve to keep insertion order identical to
/// the serial path).
std::vector<NodeId> CollectCandidates(const AnswerGraphBuilder& ag,
                                      VarId v) {
  std::vector<NodeId> out;
  ag.ForEachCandidate(v, [&](NodeId c) { out.push_back(c); });
  return out;
}

}  // namespace

Result<GeneratorResult> AgGenerator::Generate(
    const QueryGraph& query, const AgPlan& plan,
    const GeneratorOptions& options) const {
  WF_CHECK(plan.edge_order.size() == query.NumEdges())
      << "plan must cover every query edge exactly once";
  const TripleStore& store = db_->store();

  GeneratorResult result;
  AnswerGraphBuilder ag(query);

  ThreadPool* pool = options.pool;
  const bool parallel = pool != nullptr && pool->num_threads() > 1;

  // Burnback drains its cascades on the same pool (partitioned worklists
  // with ownership by variable) once a seed list crosses the threshold.
  BurnbackOptions burnback_options;
  burnback_options.pool = pool;
  burnback_options.weight = options.weight;
  burnback_options.parallel_threshold = options.burnback_parallel_threshold;
  Burnback burnback(&ag, burnback_options);

  // Chord slots are registered up front (unmaterialized slots are inert)
  // so the chord evaluator and node burnback share one builder.
  const bool use_chords =
      options.triangulate && !plan.chords.empty();
  Chordification chordification;
  chordification.chords = plan.chords;
  chordification.base_triangles = plan.base_triangles;
  chordification.base_triangle_closing_edge = plan.base_triangle_closing_edge;
  ChordEvaluator chord_eval(chordification, &ag, &burnback);
  if (use_chords || !plan.base_triangles.empty()) {
    chord_eval.RegisterChordSlots();
  }

  // Serial-path interrupt probe (cancel + deadline), amortized over
  // kDeadlineStride items; the parallel paths get the same checks per
  // morsel from ParallelFor.
  InterruptProbe probe(options.deadline, options.cancel, kDeadlineStride);

  // Lookahead filter support: for a node landing on a fresh variable v
  // via edge e, every other not-yet-materialized query edge incident to v
  // must have at least one matching data edge at that node. `walks` is
  // the charge account of the calling worker (the shard's counter on the
  // parallel path, result.edge_walks on the serial one).
  std::vector<bool> query_edge_done(query.NumEdges(), false);
  auto passes_lookahead = [&](VarId v, NodeId node, uint32_t via_edge,
                              uint64_t& walks) -> bool {
    if (!options.lookahead) return true;
    for (uint32_t f : query.IncidentEdges(v)) {
      if (f == via_edge || query_edge_done[f]) continue;
      const QueryEdge& qf = query.Edge(f);
      if (qf.label >= store.NumPredicates()) return false;
      ++walks;  // the existence probe is an index lookup
      if (qf.src == v) {
        if (store.OutNeighbors(qf.label, node).empty()) return false;
      } else {
        if (store.InNeighbors(qf.label, node).empty()) return false;
      }
    }
    return true;
  };

  // Parallel level driver: runs body(i, shard) over [0, n) in morsels,
  // each morsel filling a private PairSetShard, then merges the shards
  // into `set` in morsel order. The body only reads shared state (store,
  // AG sets of earlier levels); the merge at the barrier is the only
  // writer of `set`. Deadline expiry and cancellation surface as the
  // corresponding non-OK status, in which case nothing is merged.
  auto sharded_extend = [&](uint64_t n, uint64_t morsel,
                            PairSetBuilder& set,
                            auto&& body) -> Status {
    const uint64_t num_morsels = n == 0 ? 0 : (n + morsel - 1) / morsel;
    std::vector<PairSetShard> shards(num_morsels);
    ParallelForOptions pf;
    pf.morsel_size = morsel;
    pf.deadline = options.deadline;
    pf.cancel = options.cancel;
    pf.weight = options.weight;
    const Status st = pool->ParallelFor(
        n, pf, [&](uint32_t /*worker*/, uint64_t begin, uint64_t end) {
          PairSetShard& shard = shards[begin / morsel];
          for (uint64_t i = begin; i < end; ++i) body(i, shard);
        });
    if (!st.ok()) return st;
    for (const PairSetShard& shard : shards) {
      set.MergeShard(shard);
      result.edge_walks += shard.edge_walks;
    }
    return Status::OK();
  };

  // --- Edge extension + node burnback, one query edge at a time. ---
  for (uint32_t e : plan.edge_order) {
    const QueryEdge& qe = query.Edge(e);
    const LabelId p = qe.label;
    PairSetBuilder& set = ag.Set(e);
    const bool src_touched = ag.IsTouched(qe.src);
    const bool dst_touched = ag.IsTouched(qe.dst);
    Status level_status;  // non-OK on a parallel-path interrupt

    if (p >= store.NumPredicates()) {
      // Label exists in the dictionary but has no triples: the edge set
      // stays empty and burnback below wipes the constrained endpoints.
    } else if (!src_touched && !dst_touched) {
      // Cold start: the whole labeled edge set enters the AG.
      if (parallel) {
        // Morsel over the predicate's distinct subjects (random access
        // into the CSR index — no transient edge-list copy). Subjects
        // ascend and objects ascend within each subject, so the merged
        // insertion order equals the serial ForEachEdge order.
        const std::span<const NodeId> subjects = store.DistinctSubjects(p);
        level_status = sharded_extend(
            subjects.size(), kFrontierMorsel, set,
            [&](uint64_t i, PairSetShard& shard) {
              const NodeId s = subjects[i];
              for (NodeId o : store.OutNeighbors(p, s)) {
                ++shard.edge_walks;
                if (passes_lookahead(qe.src, s, e, shard.edge_walks) &&
                    passes_lookahead(qe.dst, o, e, shard.edge_walks)) {
                  shard.Add(s, o);
                }
              }
            });
      } else {
        store.ForEachEdge(p, [&](NodeId s, NodeId o) {
          if (probe.Hit()) return;  // sticky: the rest of the scan is cheap
          ++result.edge_walks;
          if (passes_lookahead(qe.src, s, e, result.edge_walks) &&
              passes_lookahead(qe.dst, o, e, result.edge_walks)) {
            set.Add(s, o);
          }
        });
      }
    } else if (src_touched && !dst_touched) {
      if (parallel) {
        const std::vector<NodeId> frontier = CollectCandidates(ag, qe.src);
        level_status = sharded_extend(
            frontier.size(), kFrontierMorsel, set,
            [&](uint64_t i, PairSetShard& shard) {
              const NodeId u = frontier[i];
              ++shard.edge_walks;  // one index probe
              for (NodeId o : store.OutNeighbors(p, u)) {
                ++shard.edge_walks;
                if (passes_lookahead(qe.dst, o, e, shard.edge_walks)) {
                  shard.Add(u, o);
                }
              }
            });
      } else {
        ag.ForEachCandidate(qe.src, [&](NodeId u) {
          if (probe.Hit()) return;
          ++result.edge_walks;  // one index probe
          for (NodeId o : store.OutNeighbors(p, u)) {
            ++result.edge_walks;
            if (passes_lookahead(qe.dst, o, e, result.edge_walks)) {
              set.Add(u, o);
            }
          }
        });
      }
    } else if (!src_touched && dst_touched) {
      if (parallel) {
        const std::vector<NodeId> frontier = CollectCandidates(ag, qe.dst);
        level_status = sharded_extend(
            frontier.size(), kFrontierMorsel, set,
            [&](uint64_t i, PairSetShard& shard) {
              const NodeId w = frontier[i];
              ++shard.edge_walks;
              for (NodeId s : store.InNeighbors(p, w)) {
                ++shard.edge_walks;
                if (passes_lookahead(qe.src, s, e, shard.edge_walks)) {
                  shard.Add(s, w);
                }
              }
            });
      } else {
        ag.ForEachCandidate(qe.dst, [&](NodeId w) {
          if (probe.Hit()) return;
          ++result.edge_walks;
          for (NodeId s : store.InNeighbors(p, w)) {
            ++result.edge_walks;
            if (passes_lookahead(qe.src, s, e, result.edge_walks)) {
              set.Add(s, w);
            }
          }
        });
      }
    } else {
      // Both constrained: probe from the side with fewer candidates and
      // filter the far endpoint by aliveness.
      const uint64_t src_cand = ag.CandidateCount(qe.src);
      const uint64_t dst_cand = ag.CandidateCount(qe.dst);
      if (src_cand <= dst_cand) {
        if (parallel) {
          const std::vector<NodeId> frontier = CollectCandidates(ag, qe.src);
          level_status = sharded_extend(
              frontier.size(), kFrontierMorsel, set,
              [&](uint64_t i, PairSetShard& shard) {
                const NodeId u = frontier[i];
                ++shard.edge_walks;
                for (NodeId o : store.OutNeighbors(p, u)) {
                  ++shard.edge_walks;
                  if (ag.IsAlive(qe.dst, o)) shard.Add(u, o);
                }
              });
        } else {
          ag.ForEachCandidate(qe.src, [&](NodeId u) {
            if (probe.Hit()) return;
            ++result.edge_walks;
            for (NodeId o : store.OutNeighbors(p, u)) {
              ++result.edge_walks;
              if (ag.IsAlive(qe.dst, o)) set.Add(u, o);
            }
          });
        }
      } else {
        if (parallel) {
          const std::vector<NodeId> frontier = CollectCandidates(ag, qe.dst);
          level_status = sharded_extend(
              frontier.size(), kFrontierMorsel, set,
              [&](uint64_t i, PairSetShard& shard) {
                const NodeId w = frontier[i];
                ++shard.edge_walks;
                for (NodeId s : store.InNeighbors(p, w)) {
                  ++shard.edge_walks;
                  if (ag.IsAlive(qe.src, s)) shard.Add(s, w);
                }
              });
        } else {
          ag.ForEachCandidate(qe.dst, [&](NodeId w) {
            if (probe.Hit()) return;
            ++result.edge_walks;
            for (NodeId s : store.InNeighbors(p, w)) {
              ++result.edge_walks;
              if (ag.IsAlive(qe.src, s)) set.Add(s, w);
            }
          });
        }
      }
    }
    if (!level_status.ok()) return level_status;
    if (probe.triggered()) return probe.StatusFor("answer-graph generation");

    const uint64_t added = set.Size();
    ag.MarkMaterialized(e);
    query_edge_done[e] = true;
    const uint64_t burned =
        burnback.PruneAfterExtension(e, src_touched, dst_touched);

    if (options.trace) {
      options.trace({GeneratorTraceStep::Kind::kExtension, e, added, burned,
                     ag.TotalQueryEdgePairs()});
    }
    WF_RETURN_NOT_OK(probe.CheckNow("answer-graph generation"));
  }

  // --- Chord materialization (cyclic queries). ---
  if (use_chords) {
    result.used_chords = true;
    uint64_t walks = 0;
    ChordMaterializeOptions chord_options;
    chord_options.deadline = options.deadline;
    chord_options.pool = pool;
    chord_options.cancel = options.cancel;
    chord_options.weight = options.weight;
    Status st = chord_eval.MaterializeChords(chord_options, &walks);
    if (!st.ok()) return st;
    result.edge_walks += walks;
    for (size_t c = 0; c < plan.chords.size(); ++c) {
      result.chord_pairs += ag.Set(chord_eval.ChordSlot(
                                       static_cast<uint32_t>(c)))
                                .Size();
      if (options.trace) {
        options.trace(
            {GeneratorTraceStep::Kind::kChord, static_cast<uint32_t>(c),
             ag.Set(chord_eval.ChordSlot(static_cast<uint32_t>(c))).Size(),
             0, ag.TotalQueryEdgePairs()});
      }
    }
  }

  // --- Optional edge burnback down to the ideal AG. ---
  if (options.edge_burnback &&
      (use_chords || !plan.base_triangles.empty())) {
    WF_ASSIGN_OR_RETURN(uint64_t erased,
                        chord_eval.RunEdgeBurnback(options.deadline));
    if (options.trace) {
      options.trace({GeneratorTraceStep::Kind::kEdgeBurnback, 0, 0, erased,
                     ag.TotalQueryEdgePairs()});
    }
  }

  // Generation is over: freeze the AG into its read-only CSR form,
  // set-at-a-time on the pool.
  const Stopwatch freeze_watch;
  result.ag = std::make_unique<AnswerGraph>(
      std::move(ag).Freeze(parallel ? pool : nullptr, options.weight));
  result.freeze_seconds = freeze_watch.ElapsedSeconds();
  // Every erasure funnels through `burnback`, so its counter is the
  // authoritative total — including the cascades chord materialization
  // triggers internally, which the per-step trace values never see
  // (their per-call returns are discarded inside MaterializeChords).
  result.pairs_burned = burnback.pairs_erased();
  result.burnback_depth = burnback.max_cascade_depth();
  result.burnback_handoffs = burnback.handoffs();
  result.burnback_seconds = burnback.seconds();
  return result;
}

}  // namespace wireframe
