#include <algorithm>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/answer_graph.h"

namespace wireframe {
namespace {

TEST(PairSetTest, AddAndContains) {
  PairSetBuilder s;
  EXPECT_TRUE(s.Add(1, 2));
  EXPECT_TRUE(s.Contains(1, 2));
  EXPECT_FALSE(s.Contains(2, 1));
  EXPECT_EQ(s.Size(), 1u);
}

TEST(PairSetTest, AddDeduplicates) {
  PairSetBuilder s;
  EXPECT_TRUE(s.Add(1, 2));
  EXPECT_FALSE(s.Add(1, 2));
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_EQ(s.SrcCount(1), 1u);
}

TEST(PairSetTest, EraseUpdatesCounts) {
  PairSetBuilder s;
  s.Add(1, 2);
  s.Add(1, 3);
  s.Add(4, 2);
  EXPECT_EQ(s.SrcCount(1), 2u);
  EXPECT_EQ(s.DstCount(2), 2u);
  EXPECT_TRUE(s.Erase(1, 2));
  EXPECT_FALSE(s.Erase(1, 2));  // already gone
  EXPECT_EQ(s.Size(), 2u);
  EXPECT_EQ(s.SrcCount(1), 1u);
  EXPECT_EQ(s.DstCount(2), 1u);
  EXPECT_FALSE(s.Contains(1, 2));
}

TEST(PairSetTest, DistinctCounts) {
  PairSetBuilder s;
  s.Add(1, 2);
  s.Add(1, 3);
  s.Add(4, 3);
  EXPECT_EQ(s.DistinctSrcCount(), 2u);
  EXPECT_EQ(s.DistinctDstCount(), 2u);
  s.Erase(1, 2);
  s.Erase(1, 3);
  EXPECT_EQ(s.DistinctSrcCount(), 1u);
}

TEST(PairSetTest, ForEachFwdSkipsTombstones) {
  PairSetBuilder s;
  s.Add(1, 2);
  s.Add(1, 3);
  s.Add(1, 4);
  s.Erase(1, 3);
  std::vector<NodeId> got;
  s.ForEachFwd(1, [&](NodeId v) { got.push_back(v); });
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{2, 4}));
  s.ForEachFwd(99, [&](NodeId) { FAIL() << "no pairs from 99"; });
}

TEST(PairSetTest, ForEachBwd) {
  PairSetBuilder s;
  s.Add(1, 9);
  s.Add(2, 9);
  s.Erase(1, 9);
  std::vector<NodeId> got;
  s.ForEachBwd(9, [&](NodeId u) { got.push_back(u); });
  EXPECT_EQ(got, (std::vector<NodeId>{2}));
}

TEST(PairSetTest, ForEachPairVisitsLiveOnly) {
  PairSetBuilder s;
  s.Add(1, 2);
  s.Add(3, 4);
  s.Add(5, 6);
  s.Erase(3, 4);
  std::set<std::pair<NodeId, NodeId>> got;
  s.ForEachPair([&](NodeId u, NodeId v) { got.insert({u, v}); });
  EXPECT_EQ(got, (std::set<std::pair<NodeId, NodeId>>{{1, 2}, {5, 6}}));
}

TEST(PairSetTest, ForEachSrcDst) {
  PairSetBuilder s;
  s.Add(1, 2);
  s.Add(1, 3);
  s.Add(4, 3);
  std::set<NodeId> srcs, dsts;
  s.ForEachSrc([&](NodeId u) { srcs.insert(u); });
  s.ForEachDst([&](NodeId v) { dsts.insert(v); });
  EXPECT_EQ(srcs, (std::set<NodeId>{1, 4}));
  EXPECT_EQ(dsts, (std::set<NodeId>{2, 3}));
}

TEST(PairSetTest, EraseDuringFwdIterationIsSafe) {
  PairSetBuilder s;
  for (NodeId v = 0; v < 10; ++v) s.Add(7, 100 + v);
  std::vector<NodeId> visited;
  s.ForEachFwd(7, [&](NodeId v) {
    visited.push_back(v);
    s.Erase(7, v);
  });
  EXPECT_EQ(visited.size(), 10u);
  EXPECT_EQ(s.Size(), 0u);
  EXPECT_EQ(s.SrcCount(7), 0u);
}

TEST(PairSetTest, FreezeDropsTombstonesAndPreservesContent) {
  PairSetBuilder b;
  for (NodeId u = 0; u < 20; ++u) {
    for (NodeId v = 100; v < 110; ++v) b.Add(u, v);
  }
  for (NodeId u = 0; u < 20; u += 2) {
    for (NodeId v = 100; v < 110; ++v) b.Erase(u, v);
  }
  const uint64_t size_before = b.Size();
  const PairSet s = std::move(b).Freeze();
  EXPECT_EQ(s.Size(), size_before);
  // The frozen spans hold exactly the live pairs.
  uint64_t seen = 0;
  for (NodeId u = 1; u < 20; u += 2) {
    for (NodeId v : s.FwdNeighbors(u)) {
      EXPECT_GE(v, 100u);
      ++seen;
    }
  }
  EXPECT_EQ(seen, size_before);
  // Fully-erased sources are absent from the forward index.
  EXPECT_TRUE(s.FwdNeighbors(0).empty());
  EXPECT_EQ(s.DistinctSrcCount(), 10u);
  // Backward direction too.
  uint64_t back = 0;
  for (NodeId v = 100; v < 110; ++v) {
    for (NodeId u : s.BwdNeighbors(v)) {
      EXPECT_EQ(u % 2, 1u);
      ++back;
    }
  }
  EXPECT_EQ(back, size_before);
}

TEST(PairSetShardTest, MergeShardMatchesDirectAdds) {
  // Build the same pair set twice: direct Adds in one stream, and the
  // same stream partitioned into shards merged in order. Everything
  // observable must coincide.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = 0; v < 7; ++v) pairs.emplace_back(u, (u + v) % 25);
  }

  PairSetBuilder direct;
  for (auto [u, v] : pairs) direct.Add(u, v);

  PairSetBuilder merged;
  constexpr size_t kShardSize = 23;  // deliberately not a divisor
  for (size_t begin = 0; begin < pairs.size(); begin += kShardSize) {
    PairSetShard shard;
    const size_t end = std::min(pairs.size(), begin + kShardSize);
    for (size_t i = begin; i < end; ++i) {
      shard.Add(pairs[i].first, pairs[i].second);
    }
    EXPECT_EQ(shard.Size(), end - begin);
    merged.MergeShard(shard);
  }

  ASSERT_EQ(merged.Size(), direct.Size());
  EXPECT_EQ(merged.DistinctSrcCount(), direct.DistinctSrcCount());
  EXPECT_EQ(merged.DistinctDstCount(), direct.DistinctDstCount());
  std::set<std::pair<NodeId, NodeId>> direct_pairs, merged_pairs;
  direct.ForEachPair(
      [&](NodeId u, NodeId v) { direct_pairs.emplace(u, v); });
  merged.ForEachPair(
      [&](NodeId u, NodeId v) { merged_pairs.emplace(u, v); });
  EXPECT_EQ(merged_pairs, direct_pairs);
  for (NodeId u = 0; u < 40; ++u) {
    EXPECT_EQ(merged.SrcCount(u), direct.SrcCount(u)) << "u=" << u;
  }
}

TEST(PairSetShardTest, MergeShardDeduplicatesAcrossShards) {
  PairSetBuilder set;
  PairSetShard a, b;
  a.Add(1, 2);
  a.Add(3, 4);
  b.Add(1, 2);  // duplicate of a's pair
  b.Add(5, 6);
  EXPECT_EQ(set.MergeShard(a), 2u);
  EXPECT_EQ(set.MergeShard(b), 1u) << "duplicate must not re-insert";
  EXPECT_EQ(set.Size(), 3u);
  EXPECT_EQ(set.SrcCount(1), 1u);
}

TEST(PairSetShardTest, EmptyShardIsANoOp) {
  PairSetBuilder set;
  set.Add(7, 8);
  PairSetShard empty;
  EXPECT_TRUE(empty.Empty());
  EXPECT_EQ(set.MergeShard(empty), 0u);
  EXPECT_EQ(set.Size(), 1u);
}

TEST(PairSetTest, FreezeKeepsEveryObservable) {
  PairSetBuilder builder, to_freeze;
  for (NodeId u = 0; u < 30; ++u) {
    for (NodeId v = 0; v < 9; ++v) {
      builder.Add(u, (u * 3 + v) % 40);
      to_freeze.Add(u, (u * 3 + v) % 40);
    }
  }
  // Erase a slice so freezing has tombstones to skip.
  for (NodeId u = 0; u < 30; u += 3) {
    builder.Erase(u, (u * 3) % 40);
    to_freeze.Erase(u, (u * 3) % 40);
  }
  const PairSet frozen = std::move(to_freeze).Freeze();

  EXPECT_EQ(frozen.Size(), builder.Size());
  EXPECT_EQ(frozen.DistinctSrcCount(), builder.DistinctSrcCount());
  EXPECT_EQ(frozen.DistinctDstCount(), builder.DistinctDstCount());
  std::set<std::pair<NodeId, NodeId>> builder_pairs, set_pairs;
  builder.ForEachPair(
      [&](NodeId u, NodeId v) { builder_pairs.emplace(u, v); });
  frozen.ForEachPair(
      [&](NodeId u, NodeId v) { set_pairs.emplace(u, v); });
  EXPECT_EQ(set_pairs, builder_pairs);
  for (NodeId u = 0; u < 45; ++u) {
    EXPECT_EQ(frozen.SrcCount(u), builder.SrcCount(u)) << u;
    EXPECT_EQ(frozen.DstCount(u), builder.DstCount(u)) << u;
    for (NodeId v = 0; v < 45; ++v) {
      EXPECT_EQ(frozen.Contains(u, v), builder.Contains(u, v))
          << u << "," << v;
    }
  }
  // Fwd/bwd spans hold the builder's scans, sorted.
  for (NodeId u = 0; u < 45; ++u) {
    std::vector<NodeId> fwd, bwd;
    builder.ForEachFwd(u, [&](NodeId v) { fwd.push_back(v); });
    builder.ForEachBwd(u, [&](NodeId w) { bwd.push_back(w); });
    std::sort(fwd.begin(), fwd.end());
    std::sort(bwd.begin(), bwd.end());
    const std::span<const NodeId> fwd_span = frozen.FwdNeighbors(u);
    const std::span<const NodeId> bwd_span = frozen.BwdNeighbors(u);
    EXPECT_EQ(std::vector<NodeId>(fwd_span.begin(), fwd_span.end()), fwd)
        << "u=" << u;
    EXPECT_EQ(std::vector<NodeId>(bwd_span.begin(), bwd_span.end()), bwd)
        << "v=" << u;
  }
}

TEST(PairSetTest, FreezeOfEmptySet) {
  const PairSet s = PairSetBuilder().Freeze();
  EXPECT_EQ(s.Size(), 0u);
  EXPECT_FALSE(s.Contains(0, 0));
  EXPECT_TRUE(s.FwdNeighbors(0).empty());
  s.ForEachPair([](NodeId, NodeId) { FAIL() << "empty frozen set"; });
  // A default-constructed set is empty too.
  const PairSet empty;
  EXPECT_EQ(empty.Size(), 0u);
  EXPECT_FALSE(empty.Contains(0, 0));
  EXPECT_TRUE(empty.BwdNeighbors(0).empty());
}

TEST(PairSetTest, EraseSrcSweepsExactlyTheLivePairs) {
  PairSetBuilder s;
  for (NodeId v = 0; v < 12; ++v) s.Add(5, 100 + v);
  s.Add(6, 100);
  s.Erase(5, 103);  // pre-existing tombstone the sweep must skip
  std::vector<NodeId> erased;
  const uint32_t n = s.EraseSrc(5, [&](NodeId v) { erased.push_back(v); });
  EXPECT_EQ(n, 11u);
  EXPECT_EQ(erased.size(), 11u);
  EXPECT_EQ(s.SrcCount(5), 0u);
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_TRUE(s.Contains(6, 100));
  // The sweep is reverse over the append-order list.
  EXPECT_EQ(erased.front(), 111u);
  // A second sweep is a no-op.
  EXPECT_EQ(s.EraseSrc(5, [&](NodeId) { FAIL() << "nothing left"; }), 0u);
  // Unknown source: no-op.
  EXPECT_EQ(s.EraseSrc(42, [&](NodeId) { FAIL() << "unknown src"; }), 0u);
}

TEST(PairSetTest, EraseDstSweepsExactlyTheLivePairs) {
  PairSetBuilder s;
  for (NodeId u = 0; u < 8; ++u) s.Add(200 + u, 9);
  s.Add(200, 10);
  s.Erase(204, 9);
  std::vector<NodeId> erased;
  const uint32_t n = s.EraseDst(9, [&](NodeId u) { erased.push_back(u); });
  EXPECT_EQ(n, 7u);
  EXPECT_EQ(s.DstCount(9), 0u);
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_TRUE(s.Contains(200, 10));
}

TEST(PairSetTest, ByteSizeCoversBothDirections) {
  PairSetBuilder b;
  for (NodeId v = 0; v < 16; ++v) b.Add(1, 100 + v);
  const PairSet s = std::move(b).Freeze();
  // At minimum the fwd+bwd neighbor arrays: 2 directions x 16 pairs.
  EXPECT_GE(s.ByteSize(), 2 * 16 * sizeof(NodeId));
}

TEST(PairSetTest, StressManyPairs) {
  PairSetBuilder s;
  for (NodeId u = 0; u < 100; ++u) {
    for (NodeId v = 0; v < 20; ++v) s.Add(u, v);
  }
  EXPECT_EQ(s.Size(), 2000u);
  EXPECT_EQ(s.DistinctSrcCount(), 100u);
  EXPECT_EQ(s.DistinctDstCount(), 20u);
  for (NodeId u = 0; u < 100; u += 2) {
    for (NodeId v = 0; v < 20; ++v) s.Erase(u, v);
  }
  EXPECT_EQ(s.Size(), 1000u);
  EXPECT_EQ(s.DistinctSrcCount(), 50u);
  EXPECT_EQ(s.DistinctDstCount(), 20u);
}

}  // namespace
}  // namespace wireframe
