#include "core/answer_graph.h"

#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bushy_executor.h"
#include "core/defactorizer.h"
#include "exec/aggregate_executor.h"
#include "query/templates.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

// --- Compile-time guards: phase 2 cannot mutate, and cannot be handed a
// builder. Each negative assertion is paired with the positive one on
// the other type, so a typo in a requires-expression cannot make it
// vacuously true.

template <typename S>
concept CanAdd = requires(S& s) { s.Add(NodeId{0}, NodeId{1}); };
template <typename S>
concept CanErase = requires(S& s) { s.Erase(NodeId{0}, NodeId{1}); };
template <typename S>
concept CanEraseSrc = requires(S& s) { s.EraseSrc(NodeId{0}, [](NodeId) {}); };
template <typename S>
concept CanEraseDst = requires(S& s) { s.EraseDst(NodeId{0}, [](NodeId) {}); };
template <typename S>
concept CanMergeShard =
    requires(S& s, const PairSetShard& shard) { s.MergeShard(shard); };

static_assert(CanAdd<PairSetBuilder> && CanErase<PairSetBuilder> &&
              CanEraseSrc<PairSetBuilder> && CanEraseDst<PairSetBuilder> &&
              CanMergeShard<PairSetBuilder>);
static_assert(!CanAdd<PairSet> && !CanErase<PairSet> &&
              !CanEraseSrc<PairSet> && !CanEraseDst<PairSet> &&
              !CanMergeShard<PairSet>);

template <typename G>
concept CanAddChordSlot =
    requires(G& g) { g.AddChordSlot(VarId{0}, VarId{1}); };
template <typename G>
concept CanMarkMaterialized = requires(G& g) { g.MarkMaterialized(0u); };
template <typename G>
concept HasMutableSet = !std::is_const_v<
    std::remove_reference_t<decltype(std::declval<G&>().Set(0u))>>;

static_assert(CanAddChordSlot<AnswerGraphBuilder> &&
              CanMarkMaterialized<AnswerGraphBuilder> &&
              HasMutableSet<AnswerGraphBuilder>);
static_assert(!CanAddChordSlot<AnswerGraph> &&
              !CanMarkMaterialized<AnswerGraph> &&
              !HasMutableSet<AnswerGraph>);
// Only AnswerGraphBuilder::Freeze makes an AnswerGraph.
static_assert(!std::is_constructible_v<AnswerGraph, const QueryGraph&>);

template <typename Executor>
constexpr bool kReadsOnlyFrozen =
    std::is_constructible_v<Executor, const QueryGraph&,
                            const AnswerGraph&> &&
    !std::is_constructible_v<Executor, const QueryGraph&,
                             const AnswerGraphBuilder&> &&
    !std::is_constructible_v<Executor, const QueryGraph&,
                             AnswerGraphBuilder&>;
static_assert(kReadsOnlyFrozen<Defactorizer>);
static_assert(kReadsOnlyFrozen<BushyExecutor>);
static_assert(kReadsOnlyFrozen<AggregateExecutor>);

// Chain ?v0 -0-> ?v1 -1-> ?v2.
QueryGraph ChainQuery() { return ChainTemplate(2).Instantiate({0, 1}); }

TEST(AnswerGraphTest, ConstructionMirrorsQuery) {
  QueryGraph q = ChainQuery();
  AnswerGraphBuilder ag(q);
  EXPECT_EQ(ag.NumEdgeSets(), 2u);
  EXPECT_EQ(ag.NumQueryEdges(), 2u);
  EXPECT_EQ(ag.NumVars(), 3u);
  EXPECT_EQ(ag.SrcVar(0), q.Edge(0).src);
  EXPECT_EQ(ag.DstVar(1), q.Edge(1).dst);
  EXPECT_FALSE(ag.IsMaterialized(0));
}

TEST(AnswerGraphTest, TouchedAfterMaterialization) {
  QueryGraph q = ChainQuery();
  AnswerGraphBuilder ag(q);
  EXPECT_FALSE(ag.IsTouched(0));
  ag.Set(0).Add(10, 20);
  ag.MarkMaterialized(0);
  EXPECT_TRUE(ag.IsTouched(0));
  EXPECT_TRUE(ag.IsTouched(1));
  EXPECT_FALSE(ag.IsTouched(2));  // v2 only touches edge 1
}

TEST(AnswerGraphTest, AlivenessAcrossTwoEdges) {
  QueryGraph q = ChainQuery();
  AnswerGraphBuilder ag(q);
  ag.Set(0).Add(10, 20);  // v0=10, v1=20
  ag.Set(0).Add(11, 21);
  ag.MarkMaterialized(0);
  ag.Set(1).Add(20, 30);  // v1=20, v2=30
  ag.MarkMaterialized(1);

  EXPECT_TRUE(ag.IsAlive(1, 20));   // in both sets at v1
  EXPECT_FALSE(ag.IsAlive(1, 21));  // missing from edge 1
  EXPECT_TRUE(ag.IsAlive(0, 10));
  EXPECT_TRUE(ag.IsAlive(2, 30));
  EXPECT_FALSE(ag.IsAlive(2, 99));
}

TEST(AnswerGraphTest, CandidatesFilterByAliveness) {
  QueryGraph q = ChainQuery();
  AnswerGraphBuilder ag(q);
  ag.Set(0).Add(10, 20);
  ag.Set(0).Add(11, 21);
  ag.MarkMaterialized(0);
  ag.Set(1).Add(20, 30);
  ag.MarkMaterialized(1);

  std::set<NodeId> mids;
  ag.ForEachCandidate(1, [&](NodeId c) { mids.insert(c); });
  EXPECT_EQ(mids, (std::set<NodeId>{20}));
  EXPECT_EQ(ag.CandidateCount(1), 1u);
  EXPECT_EQ(ag.CandidateCount(0), 2u);
}

TEST(AnswerGraphTest, CountAtRespectsSide) {
  QueryGraph q = ChainQuery();
  AnswerGraphBuilder ag(q);
  ag.Set(0).Add(10, 20);
  ag.Set(0).Add(10, 21);
  ag.MarkMaterialized(0);
  EXPECT_EQ(ag.CountAt(0, q.Edge(0).src, 10), 2u);
  EXPECT_EQ(ag.CountAt(0, q.Edge(0).dst, 20), 1u);
  EXPECT_EQ(ag.CountAt(0, q.Edge(0).dst, 10), 0u);
}

TEST(AnswerGraphTest, ChordSlotsExtendIncidence) {
  QueryGraph q = DiamondTemplate().Instantiate({0, 1, 2, 3});
  AnswerGraphBuilder ag(q);
  VarId x = q.FindVar("x"), y = q.FindVar("y");
  uint32_t slot = ag.AddChordSlot(x, y);
  EXPECT_EQ(slot, 4u);
  EXPECT_EQ(ag.NumEdgeSets(), 5u);
  EXPECT_EQ(ag.NumQueryEdges(), 4u);
  EXPECT_EQ(ag.SrcVar(slot), x);
  EXPECT_EQ(ag.DstVar(slot), y);
  // Unmaterialized chords do not constrain aliveness.
  ag.Set(0).Add(1, 2);
  ag.MarkMaterialized(0);
  EXPECT_TRUE(ag.IsAlive(x, 1));
}

TEST(AnswerGraphTest, TotalQueryEdgePairsExcludesChords) {
  QueryGraph q = DiamondTemplate().Instantiate({0, 1, 2, 3});
  AnswerGraphBuilder ag(q);
  uint32_t slot = ag.AddChordSlot(q.FindVar("x"), q.FindVar("y"));
  ag.Set(0).Add(1, 2);
  ag.Set(slot).Add(7, 8);
  ag.Set(slot).Add(7, 9);
  EXPECT_EQ(ag.TotalQueryEdgePairs(), 1u);
  EXPECT_EQ(std::move(ag).Freeze().TotalQueryEdgePairs(), 1u);
}

TEST(AnswerGraphTest, FreezePreservesDerivedState) {
  QueryGraph q = DiamondTemplate().Instantiate({0, 1, 2, 3});
  AnswerGraphBuilder ag(q);
  const uint32_t chord = ag.AddChordSlot(q.FindVar("x"), q.FindVar("y"));
  ag.Set(0).Add(1, 10);
  ag.Set(0).Add(2, 10);
  ag.Set(0).Add(3, 11);
  ag.MarkMaterialized(0);
  ag.Set(1).Add(10, 20);
  ag.Set(1).Add(10, 21);
  ag.MarkMaterialized(1);
  ag.Set(1).Erase(10, 21);  // leave a tombstone for Freeze to drop
  ag.Set(chord).Add(5, 6);
  ag.MarkMaterialized(chord);

  const AnswerGraph frozen = std::move(ag).Freeze();
  // Topology carries over unchanged.
  EXPECT_EQ(frozen.NumEdgeSets(), 5u);
  EXPECT_EQ(frozen.NumQueryEdges(), 4u);
  EXPECT_EQ(frozen.NumVars(), q.NumVars());
  for (uint32_t e = 0; e < 4; ++e) {
    EXPECT_EQ(frozen.SrcVar(e), q.Edge(e).src);
    EXPECT_EQ(frozen.DstVar(e), q.Edge(e).dst);
  }
  EXPECT_EQ(frozen.SrcVar(chord), q.FindVar("x"));
  EXPECT_TRUE(frozen.IsMaterialized(0));
  EXPECT_TRUE(frozen.IsMaterialized(chord));
  EXPECT_FALSE(frozen.IsMaterialized(2));
  EXPECT_EQ(frozen.IncidentSets(q.FindVar("x")).size(), 3u);
  // Pair sets hold exactly the live pairs.
  EXPECT_EQ(frozen.TotalQueryEdgePairs(), 4u);
  EXPECT_EQ(frozen.Set(0).SrcCount(1), 1u);
  EXPECT_EQ(frozen.Set(0).DstCount(10), 2u);
  EXPECT_FALSE(frozen.Set(1).Contains(10, 21));
  EXPECT_TRUE(frozen.Set(chord).Contains(5, 6));
  std::vector<AgEdgeStats> stats = frozen.Stats();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats[0].pairs, 3u);
  EXPECT_EQ(stats[0].distinct_dst, 2u);
  EXPECT_EQ(stats[1].pairs, 1u);
  EXPECT_GE(frozen.FrozenByteSize(), 2 * 5 * sizeof(NodeId));
}

TEST(AnswerGraphTest, FreezeWithPoolMatchesSerialFreeze) {
  QueryGraph q = ChainQuery();
  AnswerGraphBuilder serial(q), parallel(q);
  for (AnswerGraphBuilder* ag : {&serial, &parallel}) {
    for (NodeId k = 0; k < 50; ++k) {
      ag->Set(0).Add(k, 100 + k % 7);
      ag->Set(1).Add(100 + k % 7, 200 + k % 3);
    }
    ag->MarkMaterialized(0);
    ag->MarkMaterialized(1);
  }
  const AnswerGraph serial_ag = std::move(serial).Freeze();
  ThreadPool pool(4);
  const AnswerGraph parallel_ag =
      std::move(parallel).Freeze(ForkRule(&pool, /*force=*/true));
  for (uint32_t e = 0; e < 2; ++e) {
    std::vector<std::pair<NodeId, NodeId>> a, b;
    serial_ag.Set(e).ForEachPair(
        [&](NodeId u, NodeId v) { a.emplace_back(u, v); });
    parallel_ag.Set(e).ForEachPair(
        [&](NodeId u, NodeId v) { b.emplace_back(u, v); });
    EXPECT_EQ(a, b) << "edge " << e;
  }
}

TEST(AnswerGraphTest, StatsPerQueryEdge) {
  QueryGraph q = ChainQuery();
  AnswerGraphBuilder builder(q);
  builder.Set(0).Add(1, 2);
  builder.Set(0).Add(3, 2);
  builder.Set(1).Add(2, 4);
  const AnswerGraph ag = std::move(builder).Freeze();
  std::vector<AgEdgeStats> stats = ag.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].pairs, 2u);
  EXPECT_EQ(stats[0].distinct_src, 2u);
  EXPECT_EQ(stats[0].distinct_dst, 1u);
  EXPECT_EQ(stats[1].pairs, 1u);
}

}  // namespace
}  // namespace wireframe
