#include "exec/sink.h"

#include <atomic>
#include <mutex>

#include <gtest/gtest.h>

namespace wireframe {
namespace {

TEST(SinkTest, CountingSinkCounts) {
  CountingSink sink;
  std::vector<NodeId> row = {1, 2, 3};
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(sink.Emit(row));
  EXPECT_EQ(sink.count(), 5u);
}

TEST(SinkTest, LimitSinkStopsAtLimit) {
  LimitSink sink(3);
  std::vector<NodeId> row = {1};
  EXPECT_TRUE(sink.Emit(row));
  EXPECT_TRUE(sink.Emit(row));
  EXPECT_FALSE(sink.Emit(row));  // third emit reaches the limit
  EXPECT_EQ(sink.count(), 3u);
}

TEST(SinkTest, LimitOneProbesExistence) {
  LimitSink sink(1);
  std::vector<NodeId> row = {9};
  EXPECT_FALSE(sink.Emit(row));
  EXPECT_EQ(sink.count(), 1u);
}

TEST(SinkTest, CollectingSinkStoresRows) {
  CollectingSink sink;
  sink.Emit({1, 2});
  sink.Emit({3, 4});
  ASSERT_EQ(sink.rows().size(), 2u);
  EXPECT_EQ(sink.rows()[1], (std::vector<NodeId>{3, 4}));
}

TEST(SinkShardTest, BuffersUntilBatchThenDrainsInOrder) {
  CollectingSink inner;
  std::mutex mu;
  std::atomic<bool> stop{false};
  SinkShard shard(&inner, &mu, &stop, /*batch=*/3);
  EXPECT_TRUE(shard.Emit({1, 2}));
  EXPECT_TRUE(shard.Emit({3, 4}));
  EXPECT_EQ(inner.count(), 0u) << "nothing drains before the batch fills";
  EXPECT_TRUE(shard.Emit({5, 6}));
  EXPECT_EQ(inner.count(), 3u);
  EXPECT_EQ(inner.rows()[0], (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(inner.rows()[2], (std::vector<NodeId>{5, 6}));
  EXPECT_EQ(shard.count(), 3u);
}

TEST(SinkShardTest, TailFlushDeliversPartialBatch) {
  CollectingSink inner;
  std::mutex mu;
  std::atomic<bool> stop{false};
  SinkShard shard(&inner, &mu, &stop, /*batch=*/100);
  shard.Emit({7, 8, 9});
  shard.Emit({10, 11, 12});
  EXPECT_EQ(inner.count(), 0u);
  EXPECT_TRUE(shard.Flush());
  EXPECT_EQ(inner.count(), 2u);
  EXPECT_TRUE(shard.Flush()) << "empty re-flush is a no-op";
  EXPECT_EQ(inner.count(), 2u);
}

TEST(SinkShardTest, InnerDeclineRaisesSharedStopAndDiscardsRest) {
  LimitSink inner(2);
  std::mutex mu;
  std::atomic<bool> stop{false};
  SinkShard a(&inner, &mu, &stop, /*batch=*/4);
  for (NodeId i = 0; i < 4; ++i) a.Emit({i});
  EXPECT_TRUE(stop.load()) << "limit hit must raise the shared stop";
  EXPECT_EQ(inner.count(), 2u) << "no rows beyond the limit reach inner";

  // A sibling shard sees the stop immediately and buffers nothing more.
  SinkShard b(&inner, &mu, &stop, /*batch=*/4);
  EXPECT_FALSE(b.Emit({9}));
  b.Flush();
  EXPECT_EQ(inner.count(), 2u);
}

}  // namespace
}  // namespace wireframe
