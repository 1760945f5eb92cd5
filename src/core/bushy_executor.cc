#include "core/bushy_executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

#include "exec/join_common.h"
#include "util/interrupt.h"
#include "util/logging.h"
#include "util/span_kernels.h"

namespace wireframe {

namespace {

// Items per morsel of each kind of step; each is also the step's morsel
// in the fork rule.

/// Probe rows per morsel of a hash join.
constexpr uint64_t kProbeMorsel = 1024;
/// Leaf rows per morsel when a single-edge plan's leaf is the root.
constexpr uint64_t kEmitMorsel = 256;
/// Shared join keys per morsel of a leaf-merge gather.
constexpr uint64_t kMergeMorsel = 128;

/// A leaf⋈leaf join eligible for the sorted-merge fast path: both edges
/// share exactly one variable and neither is a self loop. The shared
/// variable keyed on each side's CSR (forward if the edge leaves
/// the shared var, backward otherwise) turns the join into one kernel
/// intersection of the two sorted key arrays plus a span cross-product
/// per common key — no hash table, no materialized leaf relations.
struct LeafMerge {
  const Csr* left_csr;
  const Csr* right_csr;
  VarId shared, left_other, right_other;
};

bool PlanLeafMerge(const QueryGraph& query, const AnswerGraph& ag,
                   const BushyPlan::Node& lnode,
                   const BushyPlan::Node& rnode, LeafMerge* out) {
  if (!lnode.IsLeaf() || !rnode.IsLeaf()) return false;
  const QueryEdge& lq = query.Edge(lnode.edge);
  const QueryEdge& rq = query.Edge(rnode.edge);
  if (lq.src == lq.dst || rq.src == rq.dst) return false;
  int shared_count = 0;
  VarId shared = 0;
  for (const VarId lv : {lq.src, lq.dst}) {
    if (lv == rq.src || lv == rq.dst) {
      ++shared_count;
      shared = lv;
    }
  }
  if (shared_count != 1) return false;
  const PairSet& lset = ag.Set(lnode.edge);
  const PairSet& rset = ag.Set(rnode.edge);
  out->left_csr = lq.src == shared ? &lset.FwdCsr() : &lset.BwdCsr();
  out->right_csr = rq.src == shared ? &rset.FwdCsr() : &rset.BwdCsr();
  out->shared = shared;
  out->left_other = lq.src == shared ? lq.dst : lq.src;
  out->right_other = rq.src == shared ? rq.dst : rq.src;
  return true;
}

}  // namespace

Result<DefactorizerStats> BushyExecutor::Emit(
    const BushyPlan& plan, Sink* sink,
    const BushyExecutorOptions& options) const {
  if (plan.root < 0) return Status::InvalidArgument("empty bushy plan");
  DefactorizerStats stats;
  uint64_t total_cells = 0;
  const ForkRule& fork = options.fork;
  const uint32_t workers =
      fork.pool() != nullptr ? fork.pool()->num_threads() : 1;

  // Serial-path interrupt probe; the parallel loops get the same checks
  // per morsel from ParallelFor. (`probe` would shadow the join's probe
  // side, hence the name.)
  InterruptProbe interrupt(options.deadline, options.cancel);

  auto parallel_options = [&](uint64_t morsel, std::atomic<bool>* stop) {
    ParallelForOptions pf;
    pf.morsel_size = morsel;
    pf.deadline = options.deadline;
    pf.stop = stop;
    pf.cancel = options.cancel;
    pf.weight = options.weight;
    return pf;
  };

  // Every join step is a row generator over its input items (common
  // join keys, probe rows, or a leaf's rows): `produce(worker, begin,
  // end, on_row)` hands on_row each output row of items [begin, end) in
  // order, as a pointer to the step's schema-ordered columns, and stops
  // when on_row returns false. An inner step's rows are collected into
  // its relation; the root's rows stream to the sink unmaterialized.
  // Each asks the fork rule once, with the step's item count; the inline
  // path walks the same morsels in order.

  // Collects a step's rows into `out` (schema set) within the memory
  // budget. A forked run fills one chunk per morsel and concatenates the
  // chunks in morsel order, so the relation is bit-identical to the
  // inline one. Returns the rows collected.
  auto collect = [&](uint64_t items, uint64_t morsel, auto&& produce,
                     JoinRelation* out) -> Result<uint64_t> {
    const size_t width = out->Width();
    if (!fork.Forks(items, morsel)) {
      auto append = [&](const NodeId* row) {
        out->cells.insert(out->cells.end(), row, row + width);
        return true;
      };
      for (uint64_t i = 0; i < items; i += morsel) {
        const uint64_t end = std::min(i + morsel, items);
        // One probe tick per item, as if each item were polled.
        if (interrupt.Hit(static_cast<uint32_t>(end - i))) {
          return interrupt.StatusFor("bushy join");
        }
        produce(0u, i, end, append);
        if (out->cells.size() + total_cells > options.max_cells) {
          return Status::OutOfRange(
              "bushy intermediate exceeded the memory budget");
        }
      }
      return out->NumRows();
    }
    stats.forked = true;
    const uint64_t num_morsels = (items + morsel - 1) / morsel;
    std::vector<std::vector<NodeId>> chunks(num_morsels);
    // Memory guard while workers run; the deterministic budget decision
    // is re-made against the exact total after the merge.
    std::atomic<uint64_t> cells_in_flight{total_cells};
    std::atomic<bool> over_budget{false};
    const Status st = fork.pool()->ParallelFor(
        items, parallel_options(morsel, &over_budget),
        [&](uint32_t worker, uint64_t begin, uint64_t end) {
          std::vector<NodeId>& chunk = chunks[begin / morsel];
          produce(worker, begin, end, [&](const NodeId* row) {
            chunk.insert(chunk.end(), row, row + width);
            return true;
          });
          if (cells_in_flight.fetch_add(chunk.size(),
                                        std::memory_order_relaxed) +
                  chunk.size() >
              options.max_cells) {
            over_budget.store(true, std::memory_order_relaxed);
          }
        });
    if (st.IsCancelled()) return Status::Cancelled("bushy join");
    if (st.IsTimedOut()) return Status::TimedOut("bushy join");
    uint64_t merged = 0;
    for (const std::vector<NodeId>& chunk : chunks) merged += chunk.size();
    if (over_budget.load(std::memory_order_relaxed) ||
        merged + total_cells > options.max_cells) {
      return Status::OutOfRange(
          "bushy intermediate exceeded the memory budget");
    }
    out->cells.reserve(merged);
    for (const std::vector<NodeId>& chunk : chunks) {
      out->cells.insert(out->cells.end(), chunk.begin(), chunk.end());
    }
    return out->NumRows();
  };

  // Streams the root step's rows (columns in `schema` order) to the sink
  // as full bindings. A forked run emits through per-worker SinkShards.
  // Returns the rows handed to the sink.
  auto stream = [&](uint64_t items, uint64_t morsel,
                    const std::vector<VarId>& schema,
                    auto&& produce) -> Result<uint64_t> {
    std::vector<int> var_to_col(query_->NumVars(), -1);
    for (size_t c = 0; c < schema.size(); ++c) {
      var_to_col[schema[c]] = static_cast<int>(c);
    }
    auto fill_binding = [&](const NodeId* row,
                            std::vector<NodeId>& binding) {
      for (VarId v = 0; v < query_->NumVars(); ++v) {
        binding[v] = var_to_col[v] >= 0 ? row[var_to_col[v]] : kInvalidNode;
      }
    };
    std::vector<std::vector<NodeId>> bindings;
    for (uint32_t w = 0; w < workers; ++w) {
      bindings.push_back(WorkerRow(query_->NumVars(), kInvalidNode));
    }
    uint64_t handed = 0;
    if (!fork.Forks(items, morsel)) {
      bool more = true;
      auto emit = [&](const NodeId* row) {
        more = !interrupt.Hit();
        if (more) {
          fill_binding(row, bindings[0]);
          ++handed;
          more = sink->Emit(bindings[0]);
        }
        return more;
      };
      for (uint64_t i = 0; i < items && more; i += morsel) {
        const uint64_t end = std::min(i + morsel, items);
        if (interrupt.Hit(static_cast<uint32_t>(end - i))) break;
        produce(0u, i, end, emit);
      }
      WF_RETURN_NOT_OK(interrupt.StatusFor("bushy emit"));
      return handed;
    }
    stats.forked = true;
    std::mutex sink_mu;
    std::atomic<bool> stop{false};
    std::vector<SinkShard> shards;
    shards.reserve(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      shards.emplace_back(sink, &sink_mu, &stop);
    }
    const Status st = fork.pool()->ParallelFor(
        items, parallel_options(morsel, &stop),
        [&](uint32_t worker, uint64_t begin, uint64_t end) {
          produce(worker, begin, end, [&](const NodeId* row) {
            fill_binding(row, bindings[worker]);
            return shards[worker].Emit(bindings[worker]);
          });
        });
    if (st.IsCancelled()) return Status::Cancelled("bushy emit");
    if (st.IsTimedOut()) return Status::TimedOut("bushy emit");
    for (SinkShard& shard : shards) {
      shard.Flush();
      handed += shard.count();
    }
    return handed;
  };

  // Builds node `index`: collected into a relation, or streamed to the
  // sink when it is the root.
  auto run = [&](auto&& self, int index) -> Result<JoinRelation> {
    const BushyPlan::Node& node = plan.nodes[index];
    const bool is_root = index == plan.root;
    JoinRelation out;
    if (node.IsLeaf()) {
      const QueryEdge& qe = query_->Edge(node.edge);
      out.schema = {qe.src, qe.dst};
      const PairSet& set = ag_->Set(node.edge);
      out.cells.reserve(set.Size() * 2);
      set.ForEachPair([&](NodeId u, NodeId v) {
        out.cells.push_back(u);
        out.cells.push_back(v);
      });
      stats.extensions += set.Size();
      total_cells += out.cells.size();
      if (is_root) {
        WF_ASSIGN_OR_RETURN(
            const uint64_t handed,
            stream(out.NumRows(), kEmitMorsel, out.schema,
                   [&](uint32_t, uint64_t begin, uint64_t end,
                       auto&& on_row) {
                     for (uint64_t r = begin; r < end; ++r) {
                       if (!on_row(out.Row(r))) return;
                     }
                   }));
        stats.emitted += handed;
      }
    } else if (LeafMerge merge; PlanLeafMerge(*query_, *ag_,
                                              plan.nodes[node.left],
                                              plan.nodes[node.right],
                                              &merge)) {
      WF_RETURN_NOT_OK(interrupt.CheckNow("bushy join"));
      const Csr& lcsr = *merge.left_csr;
      const Csr& rcsr = *merge.right_csr;
      out.schema = {merge.shared, merge.left_other, merge.right_other};

      // The join keys are the intersection of the two sorted key arrays —
      // one span-kernel call over the whole join.
      std::vector<NodeId> common(
          std::min(lcsr.Nodes().size(), rcsr.Nodes().size()) + kIntersectPad);
      const size_t num_common =
          IntersectSorted(lcsr.Nodes(), rcsr.Nodes(), common.data());
      common.resize(num_common);

      // Output size is exact before any row materializes, so the memory
      // budget is decided up front — no need for the hash path's
      // in-flight guard.
      uint64_t rows = 0;
      for (const NodeId key : common) {
        rows += static_cast<uint64_t>(lcsr.Neighbors(key).size()) *
                rcsr.Neighbors(key).size();
      }
      if (!is_root && rows * 3 + total_cells > options.max_cells) {
        return Status::OutOfRange(
            "bushy intermediate exceeded the memory budget");
      }
      // Mirror the hash path's accounting: both leaf scans plus one
      // extension per joined row (invariant across paths, dispatch, and
      // thread count).
      stats.extensions += ag_->Set(plan.nodes[node.left].edge).Size() +
                          ag_->Set(plan.nodes[node.right].edge).Size() + rows;

      // Cross-product span gather per common key, prefetch-pipelined: the
      // next keys' spans are pulled in while the current key's product is
      // written.
      auto gather = [&](uint32_t, uint64_t begin, uint64_t end,
                        auto&& on_row) {
        for (uint64_t c = begin; c < end; ++c) {
          if (c + 2 < end) {
            const NodeId ahead = common[c + 2];
            PrefetchRead(lcsr.Neighbors(ahead).data());
            PrefetchRead(rcsr.Neighbors(ahead).data());
          }
          NodeId row[3] = {common[c], kInvalidNode, kInvalidNode};
          for (const NodeId lv : lcsr.Neighbors(row[0])) {
            row[1] = lv;
            for (const NodeId rv : rcsr.Neighbors(row[0])) {
              row[2] = rv;
              if (!on_row(row)) return;
            }
          }
        }
      };
      if (is_root) {
        WF_ASSIGN_OR_RETURN(const uint64_t handed,
                            stream(num_common, kMergeMorsel, out.schema,
                                   gather));
        stats.emitted += handed;
      } else {
        out.cells.reserve(rows * 3);
        WF_RETURN_NOT_OK(
            collect(num_common, kMergeMorsel, gather, &out).status());
        total_cells += out.cells.size();
      }
    } else {
      WF_ASSIGN_OR_RETURN(JoinRelation left, self(self, node.left));
      WF_ASSIGN_OR_RETURN(JoinRelation right, self(self, node.right));
      WF_RETURN_NOT_OK(interrupt.CheckNow("bushy join"));

      // Join columns: variables present on both sides.
      std::vector<int> lcols, rcols;
      for (size_t i = 0; i < left.schema.size(); ++i) {
        const int rc = right.ColumnOf(left.schema[i]);
        if (rc >= 0) {
          lcols.push_back(static_cast<int>(i));
          rcols.push_back(rc);
        }
      }
      WF_CHECK(!lcols.empty()) << "bushy plan produced a cross product";

      // Build on the smaller side.
      const bool build_left = left.NumRows() <= right.NumRows();
      const JoinRelation& build = build_left ? left : right;
      const JoinRelation& probe = build_left ? right : left;
      const std::vector<int>& bcols = build_left ? lcols : rcols;
      const std::vector<int>& pcols = build_left ? rcols : lcols;

      std::unordered_multimap<uint64_t, size_t> table;
      table.reserve(build.NumRows());
      for (size_t r = 0; r < build.NumRows(); ++r) {
        table.emplace(JoinKeyHash(build.Row(r), bcols), r);
      }

      // Output schema: probe side columns + build-only columns.
      out.schema = probe.schema;
      std::vector<int> extra_cols;  // build columns not in the join key
      for (size_t i = 0; i < build.schema.size(); ++i) {
        if (probe.ColumnOf(build.schema[i]) < 0) {
          out.schema.push_back(build.schema[i]);
          extra_cols.push_back(static_cast<int>(i));
        }
      }

      // Probe rows' matches; a worker assembles each joined row in its
      // own scratch row. The hash table and both inputs are only read.
      std::vector<std::vector<NodeId>> scratch;
      for (uint32_t w = 0; w < workers; ++w) {
        scratch.push_back(WorkerRow(out.Width(), kInvalidNode));
      }
      auto probe_rows = [&](uint32_t worker, uint64_t begin, uint64_t end,
                            auto&& on_row) {
        NodeId* row = scratch[worker].data();
        for (uint64_t r = begin; r < end; ++r) {
          const NodeId* prow = probe.Row(r);
          std::copy_n(prow, probe.Width(), row);
          auto [first, last] = table.equal_range(JoinKeyHash(prow, pcols));
          for (auto it = first; it != last; ++it) {
            const NodeId* brow = build.Row(it->second);
            if (!JoinKeysEqual(prow, pcols, brow, bcols)) continue;
            for (size_t c = 0; c < extra_cols.size(); ++c) {
              row[probe.Width() + c] = brow[extra_cols[c]];
            }
            if (!on_row(row)) return;
          }
        }
      };
      uint64_t joined = 0;
      if (is_root) {
        WF_ASSIGN_OR_RETURN(joined, stream(probe.NumRows(), kProbeMorsel,
                                           out.schema, probe_rows));
        stats.emitted += joined;
      } else {
        WF_ASSIGN_OR_RETURN(joined, collect(probe.NumRows(), kProbeMorsel,
                                            probe_rows, &out));
        total_cells += out.cells.size();
      }
      stats.extensions += joined;
    }
    return out;
  };

  WF_RETURN_NOT_OK(run(run, plan.root).status());
  return stats;
}

}  // namespace wireframe
