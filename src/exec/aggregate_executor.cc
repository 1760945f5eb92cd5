#include "exec/aggregate_executor.h"

#include <algorithm>
#include <span>
#include <utility>

#include "util/interrupt.h"
#include "util/logging.h"
#include "util/span_kernels.h"
#include "util/thread_pool.h"

namespace wireframe {

namespace {

using U128 = unsigned __int128;

constexpr U128 kU128Max = ~static_cast<U128>(0);

/// Morsel size of the DP sweeps, and their morsel in the fork rule: one
/// item is a whole key span, so keep chunks small enough for the shared
/// pool to interleave queries.
constexpr uint64_t kDpMorselSize = 64;

/// Span-gather lookahead of the positional sweeps, mirroring
/// Csr::ForEach's prefetch distance.
constexpr size_t kPrefetchAhead = 4;

/// Exact u64 arithmetic for the first DP pass: any overflow raises the
/// pass-level flag and the result is discarded in favor of a 128-bit
/// rerun.
struct U64Ops {
  using T = uint64_t;
  static T FromLen(size_t n) { return n; }
  static bool Add(T a, T b, T* out) {
    return __builtin_add_overflow(a, b, out);
  }
  static bool Mul(T a, T b, T* out) {
    return __builtin_mul_overflow(a, b, out);
  }
  static bool IsZero(T v) { return v == 0; }
  static AggregateValue ToValue(T v) { return AggregateValue::FromU64(v); }
};

/// Saturating 128-bit arithmetic for the promotion pass. Saturation is
/// sticky upward: a clamped value can only stay clamped or multiply to
/// exact zero, so any final value below the maximum is exact and a
/// maximal one is flagged `saturated`.
struct Sat128Ops {
  using T = U128;
  static T FromLen(size_t n) { return n; }
  static bool Add(T a, T b, T* out) {
    if (b > kU128Max - a) {
      *out = kU128Max;
      return true;
    }
    *out = a + b;
    return false;
  }
  static bool Mul(T a, T b, T* out) {
    if (a == 0 || b == 0) {
      *out = 0;
      return false;
    }
    if (a > kU128Max / b) {
      *out = kU128Max;
      return true;
    }
    *out = a * b;
    return false;
  }
  static bool IsZero(T v) { return v == 0; }
  static AggregateValue ToValue(T v) {
    return AggregateValue{static_cast<uint64_t>(v),
                          static_cast<uint64_t>(v >> 64), v == kU128Max};
  }
};

/// Shared state of one DP pass. Per variable: `keys` is the candidate
/// list captured from the first folded edge (the CSR key list), `counts`
/// the dense per-candidate down-counts indexed by NodeId. A variable
/// with has_counts == 0 has no folded subtree yet and counts as 1
/// everywhere (leaf). Workers write disjoint slots; `overflow` is the
/// only shared word.
template <typename Ops>
struct DpState {
  using T = typename Ops::T;
  std::vector<std::vector<T>> counts;
  std::vector<std::vector<NodeId>> keys;
  std::vector<char> has_counts;
  std::atomic<bool> overflow{false};

  explicit DpState(uint32_t num_vars)
      : counts(num_vars), keys(num_vars), has_counts(num_vars, 0) {}
};

/// Runs `body(worker, begin, end)` over [0, n): morsel-parallel on the
/// fork rule's pool when `n` clears its floor, or serially with the
/// usual amortized interrupt probe.
template <typename Body>
Status RunLoop(uint64_t n, const AggregateExecutorOptions& options,
               const Body& body, std::atomic<bool>* stop = nullptr) {
  if (options.fork.Forks(n, kDpMorselSize)) {
    ParallelForOptions po;
    po.morsel_size = kDpMorselSize;
    po.deadline = options.deadline;
    po.cancel = options.cancel;
    po.stop = stop;
    po.weight = options.weight;
    return options.fork.pool()->ParallelFor(n, po, body);
  }
  InterruptProbe probe(options.deadline, options.cancel, /*stride=*/1024);
  for (uint64_t i = 0; i < n; ++i) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    if (probe.Hit()) return probe.StatusFor("aggregate DP");
    body(0u, i, i + 1);
  }
  return Status::OK();
}

/// Sum of the child's down-counts over one span (the span length when
/// the child subtree is empty — every candidate counts 1). Nodes outside
/// the child's count array are dead there and contribute zero.
template <typename Ops>
typename Ops::T SpanWeight(std::span<const NodeId> span,
                           const std::vector<typename Ops::T>& child_counts,
                           bool child_leaf, std::atomic<bool>* overflow) {
  using T = typename Ops::T;
  if (child_leaf) return Ops::FromLen(span.size());
  T sum = Ops::FromLen(0);
  for (NodeId c : span) {
    if (c >= child_counts.size()) continue;
    if (Ops::Add(sum, child_counts[c], &sum)) {
      overflow->store(true, std::memory_order_relaxed);
    }
  }
  return sum;
}

/// Folds one tree step into the parent's count array. The first fold of
/// a parent assigns (a positional sweep over the edge's CSR, which also
/// fixes the parent's key list); each later fold multiplies in place
/// over that stored key list, so candidates absent from the later edge
/// multiply by zero instead of going stale.
template <typename Ops>
Status FoldStep(const QueryGraph& query, const AnswerGraph& ag,
                const AggregateTreeStep& step,
                const AggregateExecutorOptions& options, DpState<Ops>* dp) {
  using T = typename Ops::T;
  const QueryEdge& qe = query.Edge(step.edge);
  const PairSet& set = ag.Set(step.edge);
  const Csr& csr = qe.src == step.parent ? set.FwdCsr() : set.BwdCsr();
  const std::vector<T>& child_counts = dp->counts[step.child];
  const bool child_leaf = dp->has_counts[step.child] == 0;
  const VarId p = step.parent;

  if (dp->has_counts[p] == 0) {
    const std::span<const NodeId> nodes = csr.Nodes();
    dp->keys[p].assign(nodes.begin(), nodes.end());
    dp->counts[p].assign(nodes.empty() ? 0 : nodes.back() + 1,
                         Ops::FromLen(0));
    dp->has_counts[p] = 1;
    std::vector<T>& out = dp->counts[p];
    return RunLoop(nodes.size(), options,
                   [&](uint32_t, uint64_t begin, uint64_t end) {
                     for (uint64_t i = begin; i < end; ++i) {
                       if (i + kPrefetchAhead < nodes.size()) {
                         csr.PrefetchSpan(i + kPrefetchAhead);
                       }
                       out[nodes[i]] = SpanWeight<Ops>(
                           csr.NeighborsAt(i), child_counts, child_leaf,
                           &dp->overflow);
                     }
                   });
  }

  const std::vector<NodeId>& keys = dp->keys[p];
  std::vector<T>& out = dp->counts[p];
  return RunLoop(keys.size(), options,
                 [&](uint32_t, uint64_t begin, uint64_t end) {
                   for (uint64_t i = begin; i < end; ++i) {
                     const NodeId c = keys[i];
                     const T w = SpanWeight<Ops>(csr.Neighbors(c),
                                                 child_counts, child_leaf,
                                                 &dp->overflow);
                     if (Ops::Mul(out[c], w, &out[c])) {
                       dp->overflow.store(true, std::memory_order_relaxed);
                     }
                   }
                 });
}

/// Down-count of candidate `c` at `v`: 1 when v folded no subtree.
template <typename Ops>
typename Ops::T TcntAt(const DpState<Ops>& dp, VarId v, NodeId c) {
  if (dp.has_counts[v] == 0) return Ops::FromLen(1);
  const auto& counts = dp.counts[v];
  return c < counts.size() ? counts[c] : Ops::FromLen(0);
}

/// Folds per-candidate counts into the final result: total (saturating
/// sum), GROUP BY rows (keys ascend because CSR key lists do), DISTINCT
/// as the number of non-zero candidates, ASK as total != 0. Non-zeroness
/// is exact even under saturation, so DISTINCT and ASK never need the
/// 128-bit rerun for their own sake.
template <typename Ops, typename ValueAt>
AggregateResult ExtractResult(std::span<const NodeId> keys,
                              const ValueAt& value_at,
                              const AggregateSpec& spec,
                              std::atomic<bool>* overflow) {
  using T = typename Ops::T;
  AggregateResult result;
  result.kind = spec.kind;
  result.factorized = true;
  T total = Ops::FromLen(0);
  uint64_t nonzero = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const T v = value_at(i);
    if (Ops::IsZero(v)) continue;
    ++nonzero;
    if (Ops::Add(total, v, &total)) {
      overflow->store(true, std::memory_order_relaxed);
    }
    if (spec.kind == AggregateKind::kCount &&
        spec.group_var != kInvalidVar) {
      result.groups.push_back({keys[i], Ops::ToValue(v)});
    }
  }
  switch (spec.kind) {
    case AggregateKind::kAsk:
      result.ask = nonzero != 0;
      result.value = AggregateValue::FromU64(result.ask ? 1 : 0);
      break;
    case AggregateKind::kCountDistinct:
      result.value = AggregateValue::FromU64(nonzero);
      break;
    default:
      result.value = Ops::ToValue(total);
      break;
  }
  return result;
}

/// The CSR span of edge `e`'s candidates opposite `keyed_var` when it
/// is bound to `node`.
std::span<const NodeId> EdgeSpanFrom(const QueryGraph& query,
                                     const AnswerGraph& ag, uint32_t e,
                                     VarId keyed_var, NodeId node) {
  const PairSet& set = ag.Set(e);
  return query.Edge(e).src == keyed_var ? set.FwdNeighbors(node)
                                        : set.BwdNeighbors(node);
}

/// Weighted contribution of one apex for the chord pair (c_u, c_v):
/// intersect every incident cycle edge's span (span kernels, ping-pong
/// scratch) and sum the apex's pendant-tree counts over the survivors.
template <typename Ops>
typename Ops::T ApexWeight(const QueryGraph& query, const AnswerGraph& ag,
                           const AggregatePlan& plan,
                           const AggregateApex& apex, NodeId c_u, NodeId c_v,
                           const DpState<Ops>& dp,
                           std::vector<NodeId>* scratch_a,
                           std::vector<NodeId>* scratch_b,
                           std::atomic<bool>* overflow) {
  std::span<const NodeId> cur =
      EdgeSpanFrom(query, ag, apex.u_edges[0], plan.chord_u, c_u);
  std::vector<NodeId>* bufs[2] = {scratch_a, scratch_b};
  int which = 0;
  auto fold = [&](uint32_t e, VarId side_var, NodeId side_node) {
    const std::span<const NodeId> other =
        EdgeSpanFrom(query, ag, e, side_var, side_node);
    std::vector<NodeId>* dst = bufs[which];
    which ^= 1;
    dst->resize(std::min(cur.size(), other.size()) + kIntersectPad);
    const size_t n = IntersectSorted(cur, other, dst->data());
    cur = std::span<const NodeId>(dst->data(), n);
  };
  for (size_t i = 1; i < apex.u_edges.size() && !cur.empty(); ++i) {
    fold(apex.u_edges[i], plan.chord_u, c_u);
  }
  for (size_t i = 0; i < apex.v_edges.size() && !cur.empty(); ++i) {
    fold(apex.v_edges[i], plan.chord_v, c_v);
  }
  return SpanWeight<Ops>(cur, dp.counts[apex.var],
                         dp.has_counts[apex.var] == 0, overflow);
}

/// The cycle sweep: iterate the materialized chord's pair set key-major
/// on the side of the grouped/distinct variable (chord_u by default);
/// each pair contributes the product of both endpoints' pendant counts,
/// the direct-edge membership filters, and every apex's weighted span
/// intersection.
template <typename Ops>
Status RunCycleSweep(const QueryGraph& query, const AnswerGraph& ag,
                     const AggregatePlan& plan, const AggregateSpec& spec,
                     const AggregateExecutorOptions& options,
                     DpState<Ops>* dp, std::vector<NodeId>* keys_out,
                     std::vector<typename Ops::T>* totals_out) {
  using T = typename Ops::T;
  const VarId anchor = spec.group_var != kInvalidVar ? spec.group_var
                       : spec.distinct_var != kInvalidVar
                           ? spec.distinct_var
                           : kInvalidVar;
  const bool key_is_v = anchor == plan.chord_v;
  const VarId key_var = key_is_v ? plan.chord_v : plan.chord_u;
  const PairSet& chord = ag.Set(plan.chord_slot);
  const Csr& csr = ag.SrcVar(plan.chord_slot) == key_var ? chord.FwdCsr()
                                                         : chord.BwdCsr();
  const std::span<const NodeId> nodes = csr.Nodes();
  keys_out->assign(nodes.begin(), nodes.end());
  totals_out->assign(nodes.size(), Ops::FromLen(0));
  std::vector<T>& totals = *totals_out;

  const uint32_t workers =
      options.fork.pool() != nullptr ? options.fork.pool()->num_threads() : 1;
  std::vector<std::vector<NodeId>> scratch_a(workers), scratch_b(workers);
  std::atomic<bool> witness{false};  // ASK stops at the first hit

  const Status status = RunLoop(
      nodes.size(), options,
      [&](uint32_t worker, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          if (i + kPrefetchAhead < nodes.size()) {
            csr.PrefetchSpan(i + kPrefetchAhead);
          }
          const NodeId ck = nodes[i];
          const T tk = TcntAt(*dp, key_var, ck);
          if (Ops::IsZero(tk)) continue;
          T key_total = Ops::FromLen(0);
          for (const NodeId cp : csr.NeighborsAt(i)) {
            const NodeId c_u = key_is_v ? cp : ck;
            const NodeId c_v = key_is_v ? ck : cp;
            const T tp = TcntAt(*dp, key_is_v ? plan.chord_u : plan.chord_v,
                                cp);
            if (Ops::IsZero(tp)) continue;
            bool pass = true;
            for (const uint32_t e : plan.direct_edges) {
              const QueryEdge& qe = query.Edge(e);
              const NodeId s = qe.src == plan.chord_u ? c_u : c_v;
              const NodeId d = qe.dst == plan.chord_u ? c_u : c_v;
              if (!ag.Set(e).Contains(s, d)) {
                pass = false;
                break;
              }
            }
            if (!pass) continue;
            T prod;
            if (Ops::Mul(tk, tp, &prod)) {
              dp->overflow.store(true, std::memory_order_relaxed);
            }
            for (const AggregateApex& apex : plan.apexes) {
              const T w = ApexWeight(query, ag, plan, apex, c_u, c_v, *dp,
                                     &scratch_a[worker], &scratch_b[worker],
                                     &dp->overflow);
              if (Ops::IsZero(w)) {
                prod = Ops::FromLen(0);
                break;
              }
              if (Ops::Mul(prod, w, &prod)) {
                dp->overflow.store(true, std::memory_order_relaxed);
              }
            }
            if (Ops::IsZero(prod)) continue;
            if (Ops::Add(key_total, prod, &key_total)) {
              dp->overflow.store(true, std::memory_order_relaxed);
            }
          }
          totals[i] = key_total;
          if (spec.kind == AggregateKind::kAsk && !Ops::IsZero(key_total)) {
            witness.store(true, std::memory_order_relaxed);
          }
        }
      },
      spec.kind == AggregateKind::kAsk ? &witness : nullptr);
  return status;
}

struct PassOutcome {
  AggregateResult result;
  bool overflowed = false;
};

template <typename Ops>
Result<PassOutcome> RunPass(const QueryGraph& query, const AnswerGraph& ag,
                            const AggregatePlan& plan,
                            const AggregateSpec& spec,
                            const AggregateExecutorOptions& options) {
  using T = typename Ops::T;
  DpState<Ops> dp(query.NumVars());
  for (const AggregateTreeStep& step : plan.steps) {
    const Status st = FoldStep<Ops>(query, ag, step, options, &dp);
    if (!st.ok()) return st;
  }
  PassOutcome out;
  if (plan.mode == AggregateMode::kTreeDp) {
    WF_CHECK(dp.has_counts[plan.root] == 1)
        << "tree DP left its root unfolded";
    const std::vector<NodeId>& keys = dp.keys[plan.root];
    const std::vector<T>& counts = dp.counts[plan.root];
    out.result = ExtractResult<Ops>(
        keys, [&](size_t i) { return counts[keys[i]]; }, spec, &dp.overflow);
  } else {
    std::vector<NodeId> keys;
    std::vector<T> totals;
    const Status st = RunCycleSweep<Ops>(query, ag, plan, spec, options, &dp,
                                         &keys, &totals);
    if (!st.ok()) return st;
    out.result = ExtractResult<Ops>(
        keys, [&](size_t i) { return totals[i]; }, spec, &dp.overflow);
  }
  out.overflowed = dp.overflow.load(std::memory_order_relaxed);
  return out;
}

}  // namespace

std::string AggregateValue::ToString() const {
  U128 v = (static_cast<U128>(hi) << 64) | lo;
  std::string digits;
  if (v == 0) digits = "0";
  while (v != 0) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  std::reverse(digits.begin(), digits.end());
  return saturated ? ">=" + digits : digits;
}

bool EnumeratingAggregateSink::Emit(const std::vector<NodeId>& binding) {
  ++rows_seen_;
  switch (spec_.kind) {
    case AggregateKind::kAsk:
      return false;  // one witness decides ASK; stop the enumeration
    case AggregateKind::kCountDistinct:
      distinct_.insert(binding[spec_.distinct_var]);
      return true;
    case AggregateKind::kCount:
      if (spec_.group_var != kInvalidVar) {
        ++group_counts_[binding[spec_.group_var]];
      }
      return true;
    default:
      return true;
  }
}

bool EnumeratingAggregateSink::EmitBatch(const NodeId* rows, size_t n,
                                         size_t width, size_t* handed) {
  if (!ReadsOnlyCount()) return Sink::EmitBatch(rows, n, width, handed);
  // ASK takes one row and declines it; COUNT(*) takes them all.
  *handed = spec_.kind == AggregateKind::kAsk ? std::min<size_t>(n, 1) : n;
  rows_seen_ += *handed;
  return spec_.kind != AggregateKind::kAsk || n == 0;
}

bool EnumeratingAggregateSink::ReadsOnlyCount() const {
  return spec_.kind == AggregateKind::kAsk ||
         (spec_.kind == AggregateKind::kCount &&
          spec_.group_var == kInvalidVar);
}

AggregateResult EnumeratingAggregateSink::TakeResult() {
  AggregateResult result;
  result.kind = spec_.kind;
  result.factorized = false;
  switch (spec_.kind) {
    case AggregateKind::kAsk:
      result.ask = rows_seen_ > 0;
      result.value = AggregateValue::FromU64(result.ask ? 1 : 0);
      break;
    case AggregateKind::kCountDistinct:
      result.value = AggregateValue::FromU64(distinct_.size());
      break;
    default:
      result.value = AggregateValue::FromU64(rows_seen_);
      if (spec_.kind == AggregateKind::kCount &&
          spec_.group_var != kInvalidVar) {
        result.groups.reserve(group_counts_.size());
        for (const auto& [key, count] : group_counts_) {
          result.groups.push_back({key, AggregateValue::FromU64(count)});
        }
        std::sort(result.groups.begin(), result.groups.end(),
                  [](const AggregateGroup& a, const AggregateGroup& b) {
                    return a.key < b.key;
                  });
      }
      break;
  }
  return result;
}

Result<AggregateResult> AggregateExecutor::Run(
    const AggregatePlan& plan, const AggregateSpec& spec,
    const AggregateExecutorOptions& options) const {
  WF_CHECK(plan.mode != AggregateMode::kEnumerate)
      << "enumerate plans run through phase 2, not the DP";
  {
    WF_ASSIGN_OR_RETURN(PassOutcome pass,
                        RunPass<U64Ops>(*query_, *ag_, plan, spec, options));
    if (!pass.overflowed) return std::move(pass.result);
  }
  // Loud promotion: some add or multiply left u64. Rerun the whole DP in
  // saturating 128-bit arithmetic — counting is AG-size-bound, so paying
  // it twice is still nothing next to enumerating the overflowing count.
  WF_ASSIGN_OR_RETURN(PassOutcome pass,
                      RunPass<Sat128Ops>(*query_, *ag_, plan, spec, options));
  return std::move(pass.result);
}

std::vector<ChordSlot> AggregateExecutor::MaterializedChords(
    const AnswerGraph& ag) {
  std::vector<ChordSlot> chords;
  for (uint32_t s = ag.NumQueryEdges(); s < ag.NumEdgeSets(); ++s) {
    if (!ag.IsMaterialized(s)) continue;
    chords.push_back({s, ag.SrcVar(s), ag.DstVar(s)});
  }
  return chords;
}

}  // namespace wireframe
