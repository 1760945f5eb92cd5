#ifndef WIREFRAME_CORE_ANSWER_GRAPH_H_
#define WIREFRAME_CORE_ANSWER_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "planner/embedding_planner.h"
#include "query/query_graph.h"
#include "util/common.h"
#include "util/csr.h"
#include "util/flat_hash.h"
#include "util/hash.h"

namespace wireframe {

class ThreadPool;

/// Thread-local builder for one morsel's share of a PairSetBuilder.
///
/// During parallel answer-graph generation each worker appends the pairs
/// its morsel produced into a private shard — plain vector pushes, no
/// synchronization, no hashing. At the level barrier the shards are
/// merged into the shared PairSetBuilder in shard-index order; because
/// morsel boundaries depend only on the frontier size and the morsel
/// size, the merged insertion sequence is deterministic and identical for
/// every thread count. The split keeps the builder itself single-writer:
/// it is only ever mutated by the merging thread, which is what makes the
/// rest of the AnswerGraphBuilder safe to read across workers.
class PairSetShard {
 public:
  void Add(NodeId u, NodeId v) { pairs_.emplace_back(u, v); }

  uint64_t Size() const { return pairs_.size(); }
  bool Empty() const { return pairs_.empty(); }
  const std::vector<std::pair<NodeId, NodeId>>& pairs() const {
    return pairs_;
  }

  /// Edge walks charged while filling this shard; summed into the
  /// generator's counter at the merge barrier.
  uint64_t edge_walks = 0;

 private:
  std::vector<std::pair<NodeId, NodeId>> pairs_;
};

/// The phase-2 materialization of one query edge (or chord): an immutable
/// set of data node pairs held as forward and backward Csr arrays
/// (util/csr.h: sorted neighbor spans, prefix-offset indexed, same shape
/// as TripleStore::PredIndex). Phase 2 — defactorization, the bushy
/// executor's leaf scans and chord filters, the counting DP — reads the
/// same pair sets millions of times, so every read is a cache-linear span
/// scan. Only PairSetBuilder::Freeze makes a non-empty one, and nothing
/// mutates it afterwards, so any number of runs may share it (the
/// runtime's AG cache does).
class PairSet {
 public:
  /// The empty set.
  PairSet() = default;

  /// True iff (u, v) is in the set.
  bool Contains(NodeId u, NodeId v) const { return fwd_.Contains(u, v); }

  /// Number of pairs.
  uint64_t Size() const { return fwd_.NumEntries(); }

  /// Pairs with source u / target v.
  uint32_t SrcCount(NodeId u) const {
    return static_cast<uint32_t>(fwd_.Neighbors(u).size());
  }
  uint32_t DstCount(NodeId v) const {
    return static_cast<uint32_t>(bwd_.Neighbors(v).size());
  }

  /// Distinct sources / targets.
  uint64_t DistinctSrcCount() const { return fwd_.Nodes().size(); }
  uint64_t DistinctDstCount() const { return bwd_.Nodes().size(); }

  /// Sorted duplicate-free neighbor spans, the inputs the span kernels
  /// (util/span_kernels.h) operate on: FwdNeighbors(u) = all v with
  /// (u, v) in the set; BwdNeighbors(v) = all u. Valid as long as the set.
  std::span<const NodeId> FwdNeighbors(NodeId u) const {
    return fwd_.Neighbors(u);
  }
  std::span<const NodeId> BwdNeighbors(NodeId v) const {
    return bwd_.Neighbors(v);
  }

  /// The CSR forms themselves, for batch entry points (Csr::ContainsMany,
  /// positional scans over Nodes()).
  const Csr& FwdCsr() const { return fwd_; }
  const Csr& BwdCsr() const { return bwd_; }

  /// Invokes fn(u, v) for every pair, source-major ascending.
  template <typename Fn>
  void ForEachPair(Fn&& fn) const {
    fwd_.ForEach(fn);
  }

  /// Heap bytes of both CSR arrays (the AG cache's quota unit).
  uint64_t ByteSize() const { return fwd_.ByteSize() + bwd_.ByteSize(); }

 private:
  friend class PairSetBuilder;
  PairSet(Csr fwd, Csr bwd) : fwd_(std::move(fwd)), bwd_(std::move(bwd)) {}

  Csr fwd_;
  Csr bwd_;
};

/// The phase-1 materialization of one query edge (or chord): a dynamic,
/// hash-indexed pair set with per-endpoint live counters and adjacency.
///
/// Pairs can be deleted individually (edge burnback) or wholesale per
/// endpoint node (node burnback); adjacency lists are append-only and
/// filtered against the live-pair set on iteration, which keeps deletion
/// O(1) per pair at the cost of a membership probe during scans — the
/// classic tombstone trade-off, chosen because burnback deletes in bulk
/// and never re-inserts. Until the first erase there are no tombstones
/// and scans skip the probe. Freeze consumes the builder into its
/// immutable PairSet once phase 1 is over.
///
/// All indexes are flat open-addressing tables (util/flat_hash.h); the
/// node-pair insert path is the inner loop of answer-graph generation.
class PairSetBuilder {
 public:
  /// Inserts (u, v); returns false if already present. Must not be called
  /// for a pair that was previously erased (adjacency lists would then
  /// hold duplicates); generation never does.
  bool Add(NodeId u, NodeId v);

  /// True iff (u, v) is live.
  bool Contains(NodeId u, NodeId v) const {
    return live_.Contains(PackPair(u, v));
  }

  /// Inserts every pair of `shard` (duplicates are ignored, as in Add).
  /// Returns the number of pairs actually inserted. Single-writer: called
  /// only from the merging thread at a level barrier.
  uint64_t MergeShard(const PairSetShard& shard);

  /// Pre-sizes the live-pair index for `n` pairs (bulk inserts whose
  /// cardinality is known up front, e.g. canonicalized chord lists).
  void Reserve(uint64_t n) { live_.Reserve(n); }

  /// Deletes (u, v); returns false if it was not live.
  bool Erase(NodeId u, NodeId v);

  /// Erases every live pair (u, *) in one reverse sweep over u's
  /// adjacency list — no snapshot; Erase itself is the tombstone filter.
  /// Invokes fn(v) per erased pair and returns the number erased, which
  /// is asserted equal to SrcCount(u) before the sweep (burnback's
  /// accounting must stay exact). The list is cleared afterwards: u is
  /// dead in this set and generation never re-adds erased pairs.
  template <typename Fn>
  uint32_t EraseSrc(NodeId u, Fn&& fn) {
    return EraseAll(fwd_.Find(u), SrcCount(u),
                    [&](NodeId v) { return Erase(u, v); }, fn);
  }

  /// Mirror of EraseSrc for pairs (*, v); invokes fn(u) per erased pair.
  template <typename Fn>
  uint32_t EraseDst(NodeId v, Fn&& fn) {
    return EraseAll(bwd_.Find(v), DstCount(v),
                    [&](NodeId u) { return Erase(u, v); }, fn);
  }

  /// Number of live pairs.
  uint64_t Size() const { return live_.Size(); }

  /// Live pairs with source u / target v.
  uint32_t SrcCount(NodeId u) const;
  uint32_t DstCount(NodeId v) const;

  /// Distinct live sources / targets.
  uint64_t DistinctSrcCount() const { return distinct_src_; }
  uint64_t DistinctDstCount() const { return distinct_dst_; }

  /// Invokes fn(v) for every live pair (u, v), in insertion order.
  template <typename Fn>
  void ForEachFwd(NodeId u, Fn&& fn) const {
    ForEachLive(fwd_.Find(u), [&](NodeId v) { return Contains(u, v); }, fn);
  }

  /// Invokes fn(u) for every live pair (u, v), in insertion order.
  template <typename Fn>
  void ForEachBwd(NodeId v, Fn&& fn) const {
    ForEachLive(bwd_.Find(v), [&](NodeId u) { return Contains(u, v); }, fn);
  }

  /// Invokes fn(u, v) for every live pair, in hash-slot order.
  template <typename Fn>
  void ForEachPair(Fn&& fn) const {
    live_.ForEach([&](uint64_t key) {
      auto [u, v] = UnpackPair(key);
      fn(u, v);
    });
  }

  /// Invokes fn(u) for every distinct live source.
  template <typename Fn>
  void ForEachSrc(Fn&& fn) const {
    src_count_.ForEach([&](NodeId u, const uint32_t& count) {
      if (count > 0) fn(u);
    });
  }
  /// Invokes fn(v) for every distinct live target.
  template <typename Fn>
  void ForEachDst(Fn&& fn) const {
    dst_count_.ForEach([&](NodeId v, const uint32_t& count) {
      if (count > 0) fn(v);
    });
  }

  /// Consumes the builder into the immutable CSR form over its live
  /// pairs. Iteration order changes from insertion order to ascending:
  /// phase 1, where order was load-bearing for determinism, is over.
  PairSet Freeze() &&;

 private:
  /// Scan body of ForEachFwd/ForEachBwd: visits `list` (may be null),
  /// filtering through `live` only once an erase left tombstones.
  template <typename LiveFn, typename Fn>
  void ForEachLive(const std::vector<NodeId>* list, LiveFn&& live,
                   Fn&& fn) const {
    if (list == nullptr) return;
    for (NodeId w : *list) {
      if (!tombstoned_ || live(w)) fn(w);
    }
  }

  /// Sweep body of EraseSrc/EraseDst over one endpoint's adjacency list.
  template <typename EraseFn, typename Fn>
  static uint32_t EraseAll(std::vector<NodeId>* list, uint32_t live_before,
                           EraseFn&& erase, Fn&& fn) {
    if (list == nullptr) return 0;
    uint32_t erased = 0;
    for (size_t i = list->size(); i-- > 0;) {
      const NodeId w = (*list)[i];
      if (erase(w)) {
        ++erased;
        fn(w);
      }
    }
    WF_DCHECK(erased == live_before) << "endpoint sweep accounting drifted";
    list->clear();
    return erased;
  }

  PairKeySet live_;
  NodeMap<std::vector<NodeId>> fwd_;
  NodeMap<std::vector<NodeId>> bwd_;
  NodeMap<uint32_t> src_count_;
  NodeMap<uint32_t> dst_count_;
  uint64_t distinct_src_ = 0;
  uint64_t distinct_dst_ = 0;
  /// True once any erase has run: adjacency lists may then hold erased
  /// pairs and scans must probe `live_`.
  bool tombstoned_ = false;
};

/// The query-shaped frame both answer-graph forms share: one edge set per
/// query edge (indexed 0..NumQueryEdges-1) plus one per chord (indexed
/// after them), each with its endpoint variables, the per-variable
/// incidence lists, and which sets are materialized. A materialized set
/// constrains its endpoints; a variable is "touched" once at least one
/// incident set is materialized.
class AgTopology {
 public:
  uint32_t NumEdgeSets() const {
    return static_cast<uint32_t>(src_var_.size());
  }
  uint32_t NumQueryEdges() const { return num_query_edges_; }
  uint32_t NumVars() const {
    return static_cast<uint32_t>(incident_.size());
  }

  /// Endpoints of edge-set `index` (query edge direction, or chord (u,v)).
  VarId SrcVar(uint32_t index) const { return src_var_[index]; }
  VarId DstVar(uint32_t index) const { return dst_var_[index]; }

  bool IsMaterialized(uint32_t index) const { return materialized_[index]; }

  /// Edge sets incident to variable v (both query edges and chords).
  const std::vector<uint32_t>& IncidentSets(VarId v) const {
    return incident_[v];
  }

  /// True iff any incident edge set of v is materialized.
  bool IsTouched(VarId v) const;

 protected:
  /// One unmaterialized slot per query edge.
  explicit AgTopology(const QueryGraph& query);

  /// Appends a slot between u and v; returns its index.
  uint32_t AddSlot(VarId u, VarId v);
  void SetMaterialized(uint32_t index);

  /// Heap bytes of the topology vectors.
  uint64_t ByteSize() const;

 private:
  uint32_t num_query_edges_ = 0;
  std::vector<VarId> src_var_;
  std::vector<VarId> dst_var_;
  std::vector<bool> materialized_;
  std::vector<std::vector<uint32_t>> incident_;
};

/// The factorized answer set (paper §2) as phase 2 reads it: for every
/// query edge — and every chord, for cyclic queries — the immutable set
/// of data-graph node pairs that can still participate in an embedding.
/// Made only by AnswerGraphBuilder::Freeze, the last step of phase 1.
class AnswerGraph : public AgTopology {
 public:
  const PairSet& Set(uint32_t index) const { return sets_[index]; }

  /// Total heap bytes of the edge sets plus the topology — what one
  /// cached AG costs to keep resident.
  uint64_t FrozenByteSize() const;

  /// Total pairs across the query edges (|AG| as the paper reports it;
  /// chords are bookkeeping, not part of the answer graph proper).
  uint64_t TotalQueryEdgePairs() const;

  /// Exact per-edge statistics for the embedding planner.
  std::vector<AgEdgeStats> Stats() const;

 private:
  friend class AnswerGraphBuilder;
  AnswerGraph(AgTopology topology, std::vector<PairSet> sets)
      : AgTopology(std::move(topology)), sets_(std::move(sets)) {}

  std::vector<PairSet> sets_;
};

/// The answer graph while phase 1 builds it: mutable PairSetBuilders plus
/// the liveness view generation and burnback steer by.
///
/// Aliveness is derived, not stored: node c is alive at var v iff every
/// *materialized* edge set incident to v contains a live pair with c on
/// v's side. Burnback (core/burnback.h) maintains this invariant by
/// cascading deletions.
class AnswerGraphBuilder : public AgTopology {
 public:
  /// Creates empty edge sets for the query's edges; chords are registered
  /// afterwards via AddChordSlot (they behave like unlabeled query edges).
  explicit AnswerGraphBuilder(const QueryGraph& query);

  /// Registers a chord between u and v; returns its edge-set index.
  uint32_t AddChordSlot(VarId u, VarId v);

  /// Marks an edge set materialized (it now constrains its endpoints).
  void MarkMaterialized(uint32_t index) { SetMaterialized(index); }

  PairSetBuilder& Set(uint32_t index) { return sets_[index]; }
  const PairSetBuilder& Set(uint32_t index) const { return sets_[index]; }

  /// True iff node c is alive at variable v (see class comment). Only
  /// meaningful for touched variables.
  bool IsAlive(VarId v, NodeId c) const;

  /// Number of live pairs incident to (v, c) in edge set `index`.
  uint32_t CountAt(uint32_t index, VarId v, NodeId c) const;

  /// Invokes fn(c) for every node alive at v. Iterates the materialized
  /// incident set with the fewest distinct nodes on v's side and filters
  /// by IsAlive. Requires IsTouched(v).
  template <typename Fn>
  void ForEachCandidate(VarId v, Fn&& fn) const {
    const uint32_t pilot = PilotSet(v);
    const PairSetBuilder& set = sets_[pilot];
    auto visit = [&](NodeId c) {
      if (IsAlive(v, c)) fn(c);
    };
    if (SrcVar(pilot) == v) {
      set.ForEachSrc(visit);
    } else {
      set.ForEachDst(visit);
    }
  }

  /// Number of nodes alive at v (linear scan; diagnostics and tests).
  uint64_t CandidateCount(VarId v) const;

  /// Live pairs across the query edges (see AnswerGraph).
  uint64_t TotalQueryEdgePairs() const;

  /// Ends phase 1: freezes every edge set into its CSR form. Sets freeze
  /// independently, so a pool (borrowed, may be null) converts one set
  /// per morsel; `weight` is the task-group scheduler share on a shared
  /// pool.
  AnswerGraph Freeze(ThreadPool* pool = nullptr, uint32_t weight = 1) &&;

 private:
  /// The materialized incident set of v with fewest distinct nodes at v.
  uint32_t PilotSet(VarId v) const;

  std::vector<PairSetBuilder> sets_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_ANSWER_GRAPH_H_
