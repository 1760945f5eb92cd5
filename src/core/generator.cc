#include "core/generator.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/burnback.h"
#include "core/chords.h"
#include "core/fork_rule.h"
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

/// Snapshots the candidate set of `v` in ForEachCandidate order, the
/// frontier order both extension paths insert in.
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

  // Every step below (extension level, burnback drain, chord pass,
  // freeze) forks onto the pool only when its own input clears this
  // rule's floor, and otherwise runs inline.
  const ForkRule rule(options.pool, options.force_parallel);

  BurnbackOptions burnback_options;
  burnback_options.fork = rule;
  burnback_options.weight = options.weight;
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

  // Inline-path interrupt probe (cancel + deadline), amortized over
  // kDeadlineStride items; the parallel paths get the same checks per
  // morsel from ParallelFor.
  InterruptProbe probe(options.deadline, options.cancel, kDeadlineStride);

  // Lookahead filter support: for a node landing on a fresh variable v
  // via edge e, every other not-yet-materialized query edge incident to v
  // must have at least one matching data edge at that node. `walks` is
  // the charge account of the calling worker (the shard's counter on the
  // parallel path, result.edge_walks inline).
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

  // Level driver: runs body(i, out, walks) over the frontier [0, n),
  // where `out` takes the level's pairs (Add) and `walks` is the charge
  // account of the calling worker. Below the fork rule's floor the level
  // runs inline straight into `set`. Above it, morsels fill private
  // PairSetShards that merge into `set` in morsel order at the barrier;
  // the body then only reads shared state (store, AG sets of earlier
  // levels), and the merge is the only writer of `set`. Either way the
  // insertion sequence is the frontier order, so the answer graph —
  // adjacency order included — is the same. A parallel-path deadline or
  // cancellation returns the corresponding non-OK status and merges
  // nothing; the inline path leaves it in `probe`.
  auto extend = [&](uint64_t n, PairSetBuilder& set, auto&& body) -> Status {
    if (!rule.Forks(n, kFrontierMorsel)) {
      for (uint64_t i = 0; i < n && !probe.Hit(); ++i) {
        body(i, set, result.edge_walks);
      }
      return Status::OK();
    }
    const uint64_t num_morsels = (n + kFrontierMorsel - 1) / kFrontierMorsel;
    std::vector<PairSetShard> shards(num_morsels);
    ParallelForOptions pf;
    pf.morsel_size = kFrontierMorsel;
    pf.deadline = options.deadline;
    pf.cancel = options.cancel;
    pf.weight = options.weight;
    const Status st = rule.pool()->ParallelFor(
        n, pf, [&](uint32_t /*worker*/, uint64_t begin, uint64_t end) {
          PairSetShard& shard = shards[begin / kFrontierMorsel];
          for (uint64_t i = begin; i < end; ++i) {
            body(i, shard, shard.edge_walks);
          }
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
      // Cold start: the whole labeled edge set enters the AG. The
      // frontier is the predicate's distinct subjects (random access
      // into the CSR index, no edge-list copy); subjects ascend and
      // objects ascend within each subject, i.e. ForEachEdge order.
      const std::span<const NodeId> subjects = store.DistinctSubjects(p);
      level_status = extend(
          subjects.size(), set,
          [&](uint64_t i, auto& out, uint64_t& walks) {
            const NodeId s = subjects[i];
            for (NodeId o : store.OutNeighbors(p, s)) {
              ++walks;
              if (passes_lookahead(qe.src, s, e, walks) &&
                  passes_lookahead(qe.dst, o, e, walks)) {
                out.Add(s, o);
              }
            }
          });
    } else {
      // Probe from the constrained endpoint; when both are constrained,
      // from the side with fewer candidates. Each side's candidates are
      // snapshotted once (ForEachCandidate order), and the probe side's
      // snapshot is the frontier. A fresh far endpoint is filtered by
      // the lookahead, a constrained one by aliveness.
      std::vector<NodeId> frontier;
      bool from_src = src_touched;
      if (src_touched && dst_touched) {
        std::vector<NodeId> src_cand = CollectCandidates(ag, qe.src);
        std::vector<NodeId> dst_cand = CollectCandidates(ag, qe.dst);
        from_src = src_cand.size() <= dst_cand.size();
        frontier = std::move(from_src ? src_cand : dst_cand);
      } else {
        frontier = CollectCandidates(ag, from_src ? qe.src : qe.dst);
      }
      const VarId far = from_src ? qe.dst : qe.src;
      const bool far_touched = from_src ? dst_touched : src_touched;
      level_status = extend(
          frontier.size(), set,
          [&](uint64_t i, auto& out, uint64_t& walks) {
            const NodeId n = frontier[i];
            ++walks;  // one index probe
            for (NodeId m : from_src ? store.OutNeighbors(p, n)
                                     : store.InNeighbors(p, n)) {
              ++walks;
              const bool keep = far_touched
                                    ? ag.IsAlive(far, m)
                                    : passes_lookahead(far, m, e, walks);
              if (!keep) continue;
              if (from_src) {
                out.Add(n, m);
              } else {
                out.Add(m, n);
              }
            }
          });
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
    chord_options.fork = rule;
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

  // Generation is over: freeze the AG into its read-only CSR form.
  const Stopwatch freeze_watch;
  result.ag = std::make_unique<AnswerGraph>(
      std::move(ag).Freeze(rule, options.weight));
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
