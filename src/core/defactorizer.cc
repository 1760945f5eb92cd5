#include "core/defactorizer.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "util/interrupt.h"
#include "util/logging.h"
#include "util/span_kernels.h"

namespace wireframe {

namespace {

/// First-edge pairs per morsel on the parallel path, and the fork rule's
/// morsel for the root partition. Each pair roots a whole enumeration
/// subtree, so morsels are small to balance skew; the dispatch cost is
/// one fetch_add per morsel.
constexpr uint64_t kRootMorsel = 64;

/// One chord evaluated by span intersection: at its check depth exactly
/// one endpoint is newly bound, so the chord constrains the extension
/// candidates to the chord-neighbors of the already-bound endpoint — a
/// sorted span fetched once per parent binding (the hoisted form of
/// probing Contains per candidate).
struct IntersectChord {
  uint32_t slot;
  /// The endpoint bound before this depth; its binding keys the span.
  VarId bound_var;
  /// True: the free endpoint is the chord's dst, so candidates are
  /// FwdNeighbors(binding[bound_var]); false: BwdNeighbors.
  bool fwd;
};

/// Per-depth chord strategy, precomputed from the join order (the bound
/// set at each depth is static, so orientation never needs a runtime
/// probe).
struct DepthChords {
  std::vector<IntersectChord> isect;
  /// True iff every chord checked at this depth is in `isect` — the
  /// gate for the intersection fast path. (A depth mixing in a chord
  /// whose endpoints both bind at depth 0 falls back to Contains.)
  bool all_isect = false;
};

/// Recursive enumeration state shared across frames. One per worker on
/// the parallel path, cache-line aligned so neighbouring workers' binding
/// and stats writes never share a line.
struct alignas(kCacheLineBytes) EmitContext {
  const QueryGraph* query;
  const AnswerGraph* ag;
  const std::vector<uint32_t>* order;
  /// chord_checks[d]: chord slots whose endpoints are both bound once the
  /// edge at depth d has been joined.
  const std::vector<std::vector<uint32_t>>* chord_checks;
  /// depth_chords[d]: the intersection form of chord_checks[d].
  const std::vector<DepthChords>* depth_chords;
  Sink* sink;
  InterruptProbe probe;
  std::vector<NodeId> binding;
  DefactorizerStats stats;
  bool stop = false;  // sink asked to stop (not an error)
  /// True once the depth-0 chords were already applied to the root list
  /// as a batched prefilter (parallel path); the per-root loop then
  /// skips ChordsAccept(_, 0).
  bool roots_prefiltered = false;
  /// Ping-pong intersection scratch, indexed by depth: a frame only
  /// touches its own depth's buffers, so recursion below it is safe.
  std::vector<std::vector<NodeId>> isect_a;
  std::vector<std::vector<NodeId>> isect_b;

  /// Amortized deadline + cancellation probe charged `ticks` calls; also
  /// true once the sink declined more rows.
  bool DeadlineHit(uint32_t ticks = 1) {
    if (stop) return true;
    if (!probe.Hit(ticks)) return false;
    stop = true;
    return true;
  }
};

/// True iff every chord becoming checkable at this depth accepts the
/// current binding.
bool ChordsAccept(EmitContext& ctx, size_t depth) {
  for (uint32_t slot : (*ctx.chord_checks)[depth]) {
    const NodeId u = ctx.binding[ctx.ag->SrcVar(slot)];
    const NodeId v = ctx.binding[ctx.ag->DstVar(slot)];
    if (!ctx.ag->Set(slot).Contains(u, v)) {
      ++ctx.stats.chord_rejections;
      return false;
    }
  }
  return true;
}

void EmitStep(EmitContext& ctx, size_t depth);

/// The fast path for a depth whose chords all intersect: instead
/// of scanning `ext` and probing every chord per candidate, intersect
/// the extension span with each chord span (both sorted CSR spans) and
/// recurse only over the survivors. Accounting matches the scan+probe
/// path exactly: one extension per span candidate, one rejection per
/// candidate failing any chord — so stats stay invariant across the two
/// forms (and across dispatch and thread count).
void IntersectAndRecurse(EmitContext& ctx, size_t depth,
                         std::span<const NodeId> ext, NodeId& free_slot) {
  const DepthChords& dc = (*ctx.depth_chords)[depth];
  ctx.stats.extensions += ext.size();
  std::span<const NodeId> current = ext;
  bool into_a = true;
  for (const IntersectChord& chord : dc.isect) {
    if (current.empty()) break;
    const PairSet& cset = ctx.ag->Set(chord.slot);
    const NodeId bound = ctx.binding[chord.bound_var];
    const std::span<const NodeId> cspan =
        chord.fwd ? cset.FwdNeighbors(bound) : cset.BwdNeighbors(bound);
    std::vector<NodeId>& buf = into_a ? ctx.isect_a[depth]
                                      : ctx.isect_b[depth];
    const size_t cap = std::min(current.size(), cspan.size()) + kIntersectPad;
    if (buf.size() < cap) buf.resize(cap);
    const size_t n = IntersectSorted(current, cspan, buf.data());
    current = std::span<const NodeId>(buf.data(), n);
    into_a = !into_a;
  }
  ctx.stats.chord_rejections += ext.size() - current.size();
  for (const NodeId value : current) {
    if (ctx.stop) break;
    free_slot = value;
    EmitStep(ctx, depth + 1);
  }
  free_slot = kInvalidNode;
}

void EmitStep(EmitContext& ctx, size_t depth) {
  if (ctx.stop) return;
  if (depth == ctx.order->size()) {
    ++ctx.stats.emitted;
    if (!ctx.sink->Emit(ctx.binding)) ctx.stop = true;
    return;
  }
  const uint32_t e = (*ctx.order)[depth];
  const QueryEdge& qe = ctx.query->Edge(e);
  const PairSet& set = ctx.ag->Set(e);
  NodeId& src_slot = ctx.binding[qe.src];
  NodeId& dst_slot = ctx.binding[qe.dst];
  const bool src_bound = src_slot != kInvalidNode;
  const bool dst_bound = dst_slot != kInvalidNode;

  if (src_bound && dst_bound) {
    if (ctx.DeadlineHit()) return;
    ++ctx.stats.extensions;
    if (set.Contains(src_slot, dst_slot) && ChordsAccept(ctx, depth)) {
      EmitStep(ctx, depth + 1);
    }
    return;
  }
  if (src_bound || dst_bound) {
    // Extend the free endpoint over the bound one's neighbor span.
    const std::span<const NodeId> ext = src_bound
                                            ? set.FwdNeighbors(src_slot)
                                            : set.BwdNeighbors(dst_slot);
    NodeId& free_slot = src_bound ? dst_slot : src_slot;
    // One probe tick per candidate and one for the step: a last depth
    // that fans out wide still polls the deadline and cancel flag every
    // `stride` rows.
    if (ctx.DeadlineHit(static_cast<uint32_t>(ext.size()) + 1)) return;
    if ((*ctx.depth_chords)[depth].all_isect) {
      IntersectAndRecurse(ctx, depth, ext, free_slot);
      return;
    }
    for (const NodeId value : ext) {
      if (ctx.stop) break;
      ++ctx.stats.extensions;
      free_slot = value;
      if (ChordsAccept(ctx, depth)) EmitStep(ctx, depth + 1);
    }
    free_slot = kInvalidNode;
    return;
  }
  // Neither endpoint bound: only legal for the first edge of a connected
  // plan; enumerate the whole edge set.
  WF_DCHECK(depth == 0) << "disconnected embedding plan";
  if (ctx.DeadlineHit()) return;
  set.ForEachPair([&](NodeId u, NodeId v) {
    if (ctx.stop) return;
    ++ctx.stats.extensions;
    src_slot = u;
    dst_slot = v;
    if (ChordsAccept(ctx, depth)) EmitStep(ctx, depth + 1);
    src_slot = kInvalidNode;
    dst_slot = kInvalidNode;
  });
}

/// Builds the per-depth intersection strategy from the static bound-set
/// progression of the join order.
std::vector<DepthChords> PlanDepthChords(
    const QueryGraph& query, const AnswerGraph& ag,
    const std::vector<uint32_t>& order,
    const std::vector<std::vector<uint32_t>>& chord_checks) {
  std::vector<DepthChords> plan(order.size());
  std::vector<bool> bound(query.NumVars(), false);
  for (size_t d = 0; d < order.size(); ++d) {
    DepthChords& dc = plan[d];
    for (uint32_t slot : chord_checks[d]) {
      const VarId cu = ag.SrcVar(slot);
      const VarId cv = ag.DstVar(slot);
      // Endpoints not bound before depth d bind at depth d; a chord with
      // exactly one new endpoint constrains the edge's free variable.
      const bool cu_new = !bound[cu];
      const bool cv_new = !bound[cv];
      if (cu_new != cv_new) {
        dc.isect.push_back({slot, cu_new ? cv : cu, /*fwd=*/cv_new});
      }
    }
    dc.all_isect = !chord_checks[d].empty() &&
                   dc.isect.size() == chord_checks[d].size();
    const QueryEdge& qe = query.Edge(order[d]);
    bound[qe.src] = true;
    bound[qe.dst] = true;
  }
  return plan;
}

}  // namespace

Result<DefactorizerStats> Defactorizer::Emit(
    const EmbeddingPlan& plan, Sink* sink,
    const DefactorizerOptions& options) const {
  WF_CHECK(plan.join_order.size() == query_->NumEdges())
      << "embedding plan must cover every query edge";

  // Precompute which materialized chords become checkable at each depth:
  // the first step after which both endpoint variables are bound.
  std::vector<std::vector<uint32_t>> chord_checks(plan.join_order.size());
  if (options.use_chords) {
    std::vector<bool> bound(query_->NumVars(), false);
    for (size_t d = 0; d < plan.join_order.size(); ++d) {
      const QueryEdge& qe = query_->Edge(plan.join_order[d]);
      bound[qe.src] = true;
      bound[qe.dst] = true;
      for (uint32_t slot = ag_->NumQueryEdges(); slot < ag_->NumEdgeSets();
           ++slot) {
        if (!ag_->IsMaterialized(slot)) continue;
        if (!bound[ag_->SrcVar(slot)] || !bound[ag_->DstVar(slot)]) continue;
        bool already = false;
        for (size_t earlier = 0; earlier < d && !already; ++earlier) {
          for (uint32_t s : chord_checks[earlier]) already |= s == slot;
        }
        if (!already) chord_checks[d].push_back(slot);
      }
    }
  }
  const std::vector<DepthChords> depth_chords =
      PlanDepthChords(*query_, *ag_, plan.join_order, chord_checks);

  auto init_context = [&](EmitContext& ctx) {
    ctx.query = query_;
    ctx.ag = ag_;
    ctx.order = &plan.join_order;
    ctx.chord_checks = &chord_checks;
    ctx.depth_chords = &depth_chords;
    ctx.probe = InterruptProbe(options.deadline, options.cancel);
    ctx.binding = WorkerRow(query_->NumVars(), kInvalidNode);
    ctx.isect_a.resize(plan.join_order.size());
    ctx.isect_b.resize(plan.join_order.size());
  };

  if (!plan.join_order.empty() &&
      options.fork.Forks(ag_->Set(plan.join_order[0]).Size(), kRootMorsel)) {
    // Parallel enumeration: partition the first edge's pairs; each worker
    // runs the same recursive EmitStep over its own context from depth 1,
    // draining embeddings through a private SinkShard.
    ThreadPool* pool = options.fork.pool();
    const uint32_t e0 = plan.join_order[0];
    const QueryEdge& qe0 = query_->Edge(e0);
    const PairSet& first = ag_->Set(e0);
    std::vector<std::pair<NodeId, NodeId>> roots;
    roots.reserve(first.Size());
    first.ForEachPair([&](NodeId u, NodeId v) { roots.emplace_back(u, v); });

    // Depth-0 chords (both endpoints bound by the first edge) applied to
    // the whole sorted root list as one batched probe per chord —
    // Csr::ContainsMany walks each span monotonically with prefetch
    // instead of binary-searching per root. Accounting mirrors the
    // per-root loop: one extension charged per discarded root here plus
    // one per surviving root below; one rejection per discarded root.
    uint64_t prefilter_extensions = 0;
    uint64_t prefilter_rejections = 0;
    bool roots_prefiltered = false;
    if (!chord_checks[0].empty()) {
      roots_prefiltered = true;
      std::vector<NodeId> keys(roots.size());
      std::vector<NodeId> vals(roots.size());
      std::vector<uint8_t> hits(roots.size());
      for (uint32_t slot : chord_checks[0]) {
        // Depth-0 chords connect exactly the first edge's variables.
        const bool straight = ag_->SrcVar(slot) == qe0.src;
        WF_DCHECK(straight ? (ag_->SrcVar(slot) == qe0.src &&
                              ag_->DstVar(slot) == qe0.dst)
                           : (ag_->SrcVar(slot) == qe0.dst &&
                              ag_->DstVar(slot) == qe0.src));
        for (size_t i = 0; i < roots.size(); ++i) {
          keys[i] = straight ? roots[i].first : roots[i].second;
          vals[i] = straight ? roots[i].second : roots[i].first;
        }
        const Csr& csr = ag_->Set(slot).FwdCsr();
        csr.ContainsMany(std::span<const NodeId>(keys).first(roots.size()),
                         std::span<const NodeId>(vals).first(roots.size()),
                         hits.data());
        size_t kept = 0;
        for (size_t i = 0; i < roots.size(); ++i) {
          if (hits[i] != 0) {
            roots[kept++] = roots[i];
          } else {
            ++prefilter_extensions;
            ++prefilter_rejections;
          }
        }
        roots.resize(kept);
        keys.resize(kept);
        vals.resize(kept);
        hits.resize(kept);
      }
    }

    std::mutex sink_mu;
    std::atomic<bool> stop{false};
    const uint32_t workers = pool->num_threads();
    std::vector<EmitContext> ctxs(workers);
    std::vector<SinkShard> shards;
    shards.reserve(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      shards.emplace_back(sink, &sink_mu, &stop);
      init_context(ctxs[w]);
      ctxs[w].roots_prefiltered = roots_prefiltered;
    }
    for (uint32_t w = 0; w < workers; ++w) ctxs[w].sink = &shards[w];

    ParallelForOptions pf;
    pf.morsel_size = kRootMorsel;
    pf.deadline = options.deadline;
    pf.stop = &stop;
    pf.cancel = options.cancel;
    pf.weight = options.weight;
    const Status st = pool->ParallelFor(
        roots.size(), pf,
        [&](uint32_t worker, uint64_t begin, uint64_t end) {
          EmitContext& ctx = ctxs[worker];
          for (uint64_t i = begin; i < end && !ctx.stop; ++i) {
            const auto [u, v] = roots[i];
            ++ctx.stats.extensions;
            ctx.binding[qe0.src] = u;
            ctx.binding[qe0.dst] = v;
            if (ctx.roots_prefiltered || ChordsAccept(ctx, 0)) {
              EmitStep(ctx, 1);
            }
            ctx.binding[qe0.src] = kInvalidNode;
            ctx.binding[qe0.dst] = kInvalidNode;
          }
        });

    DefactorizerStats stats;
    stats.forked = true;
    stats.extensions = prefilter_extensions;
    stats.chord_rejections = prefilter_rejections;
    bool timed_out = st.IsTimedOut();
    bool cancelled = st.IsCancelled();
    for (uint32_t w = 0; w < workers; ++w) {
      timed_out |= ctxs[w].probe.timed_out();
      cancelled |= ctxs[w].probe.cancelled();
      stats.extensions += ctxs[w].stats.extensions;
      stats.chord_rejections += ctxs[w].stats.chord_rejections;
    }
    if (cancelled) return Status::Cancelled("embedding generation");
    if (timed_out) return Status::TimedOut("embedding generation");
    for (SinkShard& shard : shards) {
      shard.Flush();
      stats.emitted += shard.count();
    }
    return stats;
  }

  EmitContext ctx;
  init_context(ctx);
  ctx.sink = sink;
  EmitStep(ctx, 0);
  WF_RETURN_NOT_OK(ctx.probe.StatusFor("embedding generation"));
  return ctx.stats;
}

}  // namespace wireframe
