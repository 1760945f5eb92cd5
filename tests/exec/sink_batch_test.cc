// The batch row path: Sink::EmitBatch against its per-row contract, and
// SinkShard's opportunistic drain under real thread contention (this
// suite carries the smoke label, so the TSan job races it).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sink.h"
#include "util/random.h"

namespace wireframe {
namespace {

using Rows = std::vector<std::vector<NodeId>>;

Rows SortedRows(Rows rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// `n` distinct rows of width 3, all tagged with `tag`.
Rows MakeRows(NodeId tag, size_t n) {
  Rows rows;
  for (size_t i = 0; i < n; ++i) {
    const NodeId v = static_cast<NodeId>(i);
    rows.push_back({tag, v, v * 7 + tag});
  }
  return rows;
}

/// Declines its `limit`-th row (which it still receives, like LimitSink)
/// and records any row that arrives after the decline. `batched` picks
/// whether it overrides EmitBatch or relies on the per-row default.
class DecliningSink : public Sink {
 public:
  DecliningSink(uint64_t limit, bool batched)
      : limit_(limit), batched_(batched) {}

  bool Emit(const std::vector<NodeId>& row) override { return Take(row); }
  bool EmitBatch(const NodeId* rows, size_t n, size_t width,
                 size_t* handed) override {
    if (!batched_) return Sink::EmitBatch(rows, n, width, handed);
    max_batch_ = std::max(max_batch_, n);
    *handed = 0;
    for (size_t r = 0; r < n; ++r) {
      ++*handed;
      if (!Take({rows + r * width, rows + (r + 1) * width})) return false;
    }
    return true;
  }
  uint64_t count() const override { return received_.size(); }

  uint64_t rows_after_decline() const { return rows_after_decline_; }
  size_t max_batch() const { return max_batch_; }

 private:
  bool Take(const std::vector<NodeId>& row) {
    if (declined_) ++rows_after_decline_;
    received_.push_back(row);
    if (received_.size() >= limit_) declined_ = true;
    return !declined_;
  }

  uint64_t limit_;
  bool batched_;
  bool declined_ = false;
  uint64_t rows_after_decline_ = 0;
  size_t max_batch_ = 0;
  Rows received_;
};

/// Runs `threads` workers, each emitting its own rows through a private
/// SinkShard into `inner` until the shard says stop, then flushing.
/// Returns the sum of the shards' handed counts.
uint64_t RunShards(Sink* inner, const std::vector<Rows>& per_thread,
                   size_t batch) {
  std::mutex mu;
  std::atomic<bool> stop{false};
  std::vector<SinkShard> shards;
  shards.reserve(per_thread.size());
  for (size_t t = 0; t < per_thread.size(); ++t) {
    shards.emplace_back(inner, &mu, &stop, batch);
  }
  std::vector<std::thread> workers;
  for (size_t t = 0; t < per_thread.size(); ++t) {
    workers.emplace_back([&, t] {
      for (const std::vector<NodeId>& row : per_thread[t]) {
        if (!shards[t].Emit(row)) break;
        EXPECT_LE(shards[t].buffered_rows(), batch * SinkShard::kCapBatches);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  uint64_t handed = 0;
  for (SinkShard& shard : shards) {
    shard.Flush();
    handed += shard.count();
  }
  return handed;
}

TEST(SinkShardParallelTest, FourThreadsDeliverTheSerialMultiset) {
  std::vector<Rows> per_thread;
  Rows serial;
  for (NodeId t = 0; t < 4; ++t) {
    per_thread.push_back(MakeRows(t, 5000 + 37 * t));
    serial.insert(serial.end(), per_thread.back().begin(),
                  per_thread.back().end());
  }
  for (size_t batch : {1, 7, 256}) {
    CollectingSink inner;
    const uint64_t handed = RunShards(&inner, per_thread, batch);
    EXPECT_EQ(handed, serial.size()) << "batch " << batch;
    EXPECT_EQ(SortedRows(inner.rows()), SortedRows(serial))
        << "batch " << batch;
  }
}

TEST(SinkShardParallelTest, LimitSinkNeverReceivesARowAfterDeclining) {
  std::vector<Rows> per_thread;
  for (NodeId t = 0; t < 4; ++t) per_thread.push_back(MakeRows(t, 20000));
  for (bool batched : {true, false}) {
    for (uint64_t limit : {1u, 5u, 300u, 4099u}) {
      DecliningSink inner(limit, batched);
      const uint64_t handed = RunShards(&inner, per_thread, 64);
      EXPECT_EQ(inner.rows_after_decline(), 0u)
          << "limit " << limit << " batched " << batched;
      EXPECT_EQ(inner.count(), limit);
      // Per-row semantics: every row handed reached the sink, the
      // declined one included, and nothing else was counted.
      EXPECT_EQ(handed, limit);
    }
  }
}

TEST(SinkShardParallelTest, BufferNeverExceedsItsCap) {
  // Deterministic: while another thread holds the drain lock, the shard
  // keeps producing up to exactly its cap, then waits and drains it all.
  DecliningSink inner(UINT64_MAX, /*batched=*/true);
  std::mutex mu;
  std::atomic<bool> stop{false};
  SinkShard shard(&inner, &mu, &stop, /*batch=*/4);
  const size_t cap = 4 * SinkShard::kCapBatches;

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool locked = false;
  bool release = false;
  std::thread holder([&] {
    std::lock_guard<std::mutex> drain_lock(mu);
    std::unique_lock<std::mutex> lock(gate_mu);
    locked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return locked; });
  }
  const Rows rows = MakeRows(1, cap);
  for (size_t r = 0; r + 1 < rows.size(); ++r) {
    EXPECT_TRUE(shard.Emit(rows[r]));
    EXPECT_EQ(shard.buffered_rows(), r + 1) << "lock held: keep producing";
  }
  EXPECT_EQ(inner.count(), 0u);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    release = true;
  }
  gate_cv.notify_all();
  holder.join();
  EXPECT_TRUE(shard.Emit(rows.back()));  // at the cap: waits, drains
  EXPECT_EQ(shard.buffered_rows(), 0u);
  EXPECT_EQ(inner.count(), cap);
  EXPECT_EQ(inner.max_batch(), cap);

  // Contended: four shards into one sink; no drain is ever larger than
  // a cap (RunShards also checks every shard after every Emit).
  DecliningSink shared(UINT64_MAX, /*batched=*/true);
  std::vector<Rows> per_thread;
  for (NodeId t = 0; t < 4; ++t) per_thread.push_back(MakeRows(t, 30000));
  RunShards(&shared, per_thread, 16);
  EXPECT_LE(shared.max_batch(), 16 * SinkShard::kCapBatches);
  EXPECT_EQ(shared.count(), 4u * 30000u);
}

/// What the per-row loop observes: rows fed one Emit at a time until the
/// first decline.
struct Observed {
  uint64_t handed = 0;
  bool stopped = false;
  Rows delivered;
  uint64_t count = 0;
  bool exhausted = false;

  bool operator==(const Observed&) const = default;
};

/// A sink stack under test: the sink rows enter, and the collecting
/// sink at the bottom.
struct Stack {
  std::unique_ptr<CollectingSink> bottom = std::make_unique<CollectingSink>();
  std::unique_ptr<Sink> middle;  // optional limit below the top
  std::unique_ptr<Sink> top;
  std::function<bool()> exhausted = [] { return false; };
};

using StackFactory = std::function<Stack()>;

Observed FeedPerRow(const StackFactory& make, const Rows& rows) {
  Stack stack = make();
  Observed seen;
  for (const std::vector<NodeId>& row : rows) {
    ++seen.handed;
    if (!stack.top->Emit(row)) {
      seen.stopped = true;
      break;
    }
  }
  seen.delivered = stack.bottom->rows();
  seen.count = stack.top->count();
  seen.exhausted = stack.exhausted();
  return seen;
}

Observed FeedBatches(const StackFactory& make, const Rows& rows, Rng& rng) {
  Stack stack = make();
  const size_t width = rows.empty() ? 0 : rows[0].size();
  std::vector<NodeId> flat;
  for (const std::vector<NodeId>& row : rows) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  Observed seen;
  size_t pos = 0;
  while (pos < rows.size()) {
    const size_t n = static_cast<size_t>(
        rng.Uniform(std::min<size_t>(rows.size() - pos, 40) + 1));
    size_t handed = 0;
    const bool more =
        stack.top->EmitBatch(flat.data() + pos * width, n, width, &handed);
    EXPECT_LE(handed, n);
    seen.handed += handed;
    pos += n;
    if (!more) {
      EXPECT_GE(handed, 1u) << "a decline hands the declined row";
      seen.stopped = true;
      break;
    }
    EXPECT_EQ(handed, n) << "no decline: the whole batch is handed";
  }
  seen.delivered = stack.bottom->rows();
  seen.count = stack.top->count();
  seen.exhausted = stack.exhausted();
  return seen;
}

void ExpectBatchMatchesPerRow(const StackFactory& make, const Rows& rows,
                              const std::string& what) {
  const Observed per_row = FeedPerRow(make, rows);
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    EXPECT_EQ(FeedBatches(make, rows, rng), per_row)
        << what << " trial " << trial;
  }
}

TEST(SinkBatchTest, LimitSinkMatchesPerRow) {
  const Rows rows = MakeRows(3, 100);
  for (uint64_t limit : {0u, 1u, 2u, 50u, 100u, 101u, 500u}) {
    ExpectBatchMatchesPerRow(
        [limit] {
          Stack s;
          auto limit_sink = std::make_unique<LimitSink>(limit);
          s.top = std::move(limit_sink);
          return s;
        },
        rows, "limit " + std::to_string(limit));
  }
}

TEST(SinkBatchTest, DefaultEmitBatchMatchesPerRow) {
  const Rows rows = MakeRows(4, 100);
  for (uint64_t limit : {1u, 37u, 100u, 200u}) {
    ExpectBatchMatchesPerRow(
        [limit] {
          Stack s;
          s.top = std::make_unique<DecliningSink>(limit, /*batched=*/false);
          return s;
        },
        rows, "declining at " + std::to_string(limit));
  }
}

TEST(SinkBatchTest, RemapSinkMatchesPerRow) {
  const Rows rows = MakeRows(5, 100);
  for (uint64_t limit : {uint64_t{7}, UINT64_MAX}) {
    ExpectBatchMatchesPerRow(
        [limit] {
          Stack s;
          // Remap -> stop after `limit` -> collect.
          auto collect_limit =
              std::make_unique<RowBudgetSink>(s.bottom.get(), limit);
          s.top = std::make_unique<RemapSink>(collect_limit.get(),
                                              std::vector<VarId>{2, 0, 1});
          s.middle = std::move(collect_limit);
          return s;
        },
        rows, "remap, budget " + std::to_string(limit));
  }
  CollectingSink collected;
  RemapSink remap(&collected, {2, 0, 1});
  EXPECT_TRUE(remap.Emit({10, 11, 12}));
  EXPECT_EQ(collected.rows()[0], (std::vector<NodeId>{12, 10, 11}));
}

TEST(SinkBatchTest, RowBudgetSinkMatchesPerRow) {
  const Rows rows = MakeRows(6, 100);
  for (uint64_t budget : {0u, 1u, 3u, 64u, 99u, 100u, 101u, 1000u}) {
    ExpectBatchMatchesPerRow(
        [budget] {
          Stack s;
          auto sink = std::make_unique<RowBudgetSink>(s.bottom.get(), budget);
          RowBudgetSink* raw = sink.get();
          s.exhausted = [raw] { return raw->exhausted(); };
          s.top = std::move(sink);
          return s;
        },
        rows, "budget " + std::to_string(budget));
  }
}

TEST(SinkBatchTest, ExactBudgetIsNotExhaustion) {
  const Rows rows = MakeRows(7, 64);
  std::vector<NodeId> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  CollectingSink collected;
  RowBudgetSink budget(&collected, rows.size());
  size_t handed = 0;
  EXPECT_TRUE(budget.EmitBatch(flat.data(), rows.size(), 3, &handed));
  EXPECT_EQ(handed, rows.size());
  EXPECT_FALSE(budget.exhausted()) << "a result of exactly budget rows";
  EXPECT_EQ(budget.count(), rows.size());
  // The engine's surplus row discovers the end: refused, counted as
  // handed, never forwarded.
  EXPECT_FALSE(budget.EmitBatch(flat.data(), 1, 3, &handed));
  EXPECT_EQ(handed, 1u);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(collected.count(), rows.size());
}

}  // namespace
}  // namespace wireframe
