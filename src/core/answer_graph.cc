#include "core/answer_graph.h"

#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace wireframe {

namespace {

/// Pairs summed over the first `num_query_edges` sets (chords excluded).
template <typename Set>
uint64_t QueryEdgePairs(const std::vector<Set>& sets,
                        uint32_t num_query_edges) {
  uint64_t total = 0;
  for (uint32_t e = 0; e < num_query_edges; ++e) total += sets[e].Size();
  return total;
}

}  // namespace

bool PairSetBuilder::Add(NodeId u, NodeId v) {
  if (!live_.Insert(PackPair(u, v))) return false;
  fwd_[u].push_back(v);
  bwd_[v].push_back(u);
  if (++src_count_[u] == 1) ++distinct_src_;
  if (++dst_count_[v] == 1) ++distinct_dst_;
  return true;
}

uint64_t PairSetBuilder::MergeShard(const PairSetShard& shard) {
  uint64_t inserted = 0;
  for (const auto& [u, v] : shard.pairs()) {
    if (Add(u, v)) ++inserted;
  }
  return inserted;
}

bool PairSetBuilder::Erase(NodeId u, NodeId v) {
  if (!live_.Erase(PackPair(u, v))) return false;
  tombstoned_ = true;
  uint32_t* su = src_count_.Find(u);
  WF_DCHECK(su != nullptr && *su > 0);
  if (--*su == 0) --distinct_src_;
  uint32_t* dv = dst_count_.Find(v);
  WF_DCHECK(dv != nullptr && *dv > 0);
  if (--*dv == 0) --distinct_dst_;
  return true;
}

uint32_t PairSetBuilder::SrcCount(NodeId u) const {
  const uint32_t* count = src_count_.Find(u);
  return count == nullptr ? 0 : *count;
}

uint32_t PairSetBuilder::DstCount(NodeId v) const {
  const uint32_t* count = dst_count_.Find(v);
  return count == nullptr ? 0 : *count;
}

PairSet PairSetBuilder::Freeze() && {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(live_.Size());
  live_.ForEach([&](uint64_t key) { pairs.push_back(UnpackPair(key)); });
  // Release the hash tables before building the CSRs: only `live_` was
  // read, and dropping the adjacency/count tables here (instead of when
  // the moved-from builder dies) roughly halves the transient peak of
  // freezing a large set — AnswerGraphBuilder::Freeze runs several sets
  // concurrently on the pool.
  *this = PairSetBuilder();
  Csr fwd = Csr::Build(std::move(pairs));
  // Rebuild the reversed list from the forward CSR so `pairs` is gone
  // before the second copy exists.
  std::vector<std::pair<NodeId, NodeId>> reversed;
  reversed.reserve(fwd.NumEntries());
  fwd.ForEach([&](NodeId u, NodeId v) { reversed.emplace_back(v, u); });
  Csr bwd = Csr::Build(std::move(reversed));
  return PairSet(std::move(fwd), std::move(bwd));
}

AgTopology::AgTopology(const QueryGraph& query)
    : num_query_edges_(query.NumEdges()) {
  incident_.resize(query.NumVars());
  for (uint32_t e = 0; e < query.NumEdges(); ++e) {
    const QueryEdge& qe = query.Edge(e);
    AddSlot(qe.src, qe.dst);
  }
}

uint32_t AgTopology::AddSlot(VarId u, VarId v) {
  WF_CHECK(u < incident_.size() && v < incident_.size());
  const uint32_t index = NumEdgeSets();
  materialized_.push_back(false);
  src_var_.push_back(u);
  dst_var_.push_back(v);
  incident_[u].push_back(index);
  incident_[v].push_back(index);
  return index;
}

void AgTopology::SetMaterialized(uint32_t index) {
  WF_CHECK(index < NumEdgeSets());
  materialized_[index] = true;
}

bool AgTopology::IsTouched(VarId v) const {
  for (uint32_t e : incident_[v]) {
    if (materialized_[e]) return true;
  }
  return false;
}

uint64_t AgTopology::ByteSize() const {
  uint64_t bytes = (src_var_.size() + dst_var_.size()) * sizeof(VarId) +
                   materialized_.size() / 8;
  for (const std::vector<uint32_t>& inc : incident_) {
    bytes += inc.size() * sizeof(uint32_t);
  }
  return bytes;
}

uint64_t AnswerGraph::FrozenByteSize() const {
  uint64_t bytes = AgTopology::ByteSize() + sets_.size() * sizeof(PairSet);
  for (const PairSet& set : sets_) bytes += set.ByteSize();
  return bytes;
}

uint64_t AnswerGraph::TotalQueryEdgePairs() const {
  return QueryEdgePairs(sets_, NumQueryEdges());
}

std::vector<AgEdgeStats> AnswerGraph::Stats() const {
  std::vector<AgEdgeStats> stats(NumQueryEdges());
  for (uint32_t e = 0; e < NumQueryEdges(); ++e) {
    stats[e].pairs = sets_[e].Size();
    stats[e].distinct_src = sets_[e].DistinctSrcCount();
    stats[e].distinct_dst = sets_[e].DistinctDstCount();
  }
  return stats;
}

AnswerGraphBuilder::AnswerGraphBuilder(const QueryGraph& query)
    : AgTopology(query), sets_(query.NumEdges()) {}

uint32_t AnswerGraphBuilder::AddChordSlot(VarId u, VarId v) {
  sets_.emplace_back();
  return AddSlot(u, v);
}

uint32_t AnswerGraphBuilder::CountAt(uint32_t index, VarId v,
                                     NodeId c) const {
  WF_DCHECK(SrcVar(index) == v || DstVar(index) == v);
  if (SrcVar(index) == v) return sets_[index].SrcCount(c);
  return sets_[index].DstCount(c);
}

bool AnswerGraphBuilder::IsAlive(VarId v, NodeId c) const {
  bool touched = false;
  for (uint32_t e : IncidentSets(v)) {
    if (!IsMaterialized(e)) continue;
    touched = true;
    if (CountAt(e, v, c) == 0) return false;
  }
  return touched;
}

uint32_t AnswerGraphBuilder::PilotSet(VarId v) const {
  uint32_t best = UINT32_MAX;
  uint64_t best_count = UINT64_MAX;
  for (uint32_t e : IncidentSets(v)) {
    if (!IsMaterialized(e)) continue;
    const uint64_t count = SrcVar(e) == v ? sets_[e].DistinctSrcCount()
                                          : sets_[e].DistinctDstCount();
    if (count < best_count) {
      best_count = count;
      best = e;
    }
  }
  WF_CHECK(best != UINT32_MAX) << "ForEachCandidate on untouched variable";
  return best;
}

uint64_t AnswerGraphBuilder::CandidateCount(VarId v) const {
  uint64_t n = 0;
  ForEachCandidate(v, [&](NodeId) { ++n; });
  return n;
}

uint64_t AnswerGraphBuilder::TotalQueryEdgePairs() const {
  return QueryEdgePairs(sets_, NumQueryEdges());
}

AnswerGraph AnswerGraphBuilder::Freeze(ThreadPool* pool, uint32_t weight) && {
  std::vector<PairSet> frozen(sets_.size());
  auto freeze_range = [&](uint64_t begin, uint64_t end) {
    for (uint64_t s = begin; s < end; ++s) {
      frozen[s] = std::move(sets_[s]).Freeze();
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && sets_.size() > 1) {
    ParallelForOptions pf;
    pf.morsel_size = 1;
    pf.weight = weight;
    const Status st = pool->ParallelFor(
        sets_.size(), pf,
        [&](uint32_t, uint64_t begin, uint64_t end) {
          freeze_range(begin, end);
        });
    WF_CHECK(st.ok()) << "freeze has no deadline";
  } else {
    freeze_range(0, sets_.size());
  }
  sets_.clear();
  return AnswerGraph(std::move(*this), std::move(frozen));
}

}  // namespace wireframe
