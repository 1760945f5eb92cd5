#ifndef WIREFRAME_EXEC_SINK_H_
#define WIREFRAME_EXEC_SINK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/common.h"

namespace wireframe {

/// Consumer of embedding tuples. Engines call Emit once per embedding
/// with the full variable binding (indexed by VarId), or EmitBatch with a
/// run of them; the sink decides whether to count, collect, project, or
/// stop early.
///
/// No sink is thread-safe: callers never overlap Emit/EmitBatch calls on
/// one sink (parallel engines funnel through SinkShard for that).
class Sink {
 public:
  virtual ~Sink();

  /// Receives one embedding. Returning false asks the engine to stop
  /// (used by LIMIT-style consumers); engines then finish with OK status.
  virtual bool Emit(const std::vector<NodeId>& binding) = 0;

  /// Receives `n` embeddings of `width` columns each, row-major at
  /// `rows`. Same contract as `n` Emit calls in order, stopping at the
  /// first declined row: returns false iff some row was declined, and
  /// sets `*handed` to the rows the per-row loop would have passed to
  /// Emit — all `n` when none was declined, else the declined row's
  /// index + 1. No row after a declined one reaches the sink.
  ///
  /// The default is exactly that loop over Emit, so a sink that only
  /// implements Emit behaves the same behind a batching producer.
  virtual bool EmitBatch(const NodeId* rows, size_t n, size_t width,
                         size_t* handed);

  /// Number of tuples accepted so far.
  virtual uint64_t count() const = 0;
};

/// Counts embeddings without storing them (the benches' default: the
/// paper measures "the time spent to retrieve all the result tuples").
class CountingSink : public Sink {
 public:
  bool Emit(const std::vector<NodeId>&) override {
    ++count_;
    return true;
  }
  bool EmitBatch(const NodeId*, size_t n, size_t, size_t* handed) override {
    count_ += n;
    *handed = n;
    return true;
  }
  uint64_t count() const override { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Counts up to a limit, then stops the engine. Used by the query miner's
/// non-emptiness probes (limit 1).
class LimitSink : public Sink {
 public:
  explicit LimitSink(uint64_t limit) : limit_(limit) {}
  bool Emit(const std::vector<NodeId>&) override {
    return ++count_ < limit_;
  }
  bool EmitBatch(const NodeId*, size_t n, size_t, size_t* handed) override {
    *handed = 0;
    if (n == 0) return true;
    // Every row counts; the one reaching the limit is the declined one
    // (past the limit, each further row declines on its own).
    const uint64_t room = count_ < limit_ ? limit_ - count_ : 1;
    *handed = static_cast<size_t>(std::min<uint64_t>(n, room));
    count_ += *handed;
    return count_ < limit_;
  }
  uint64_t count() const override { return count_; }

 private:
  uint64_t limit_;
  uint64_t count_ = 0;
};

/// Stores full bindings (tests and small examples only).
class CollectingSink : public Sink {
 public:
  bool Emit(const std::vector<NodeId>& binding) override {
    rows_.push_back(binding);
    return true;
  }
  bool EmitBatch(const NodeId* rows, size_t n, size_t width,
                 size_t* handed) override {
    for (size_t r = 0; r < n; ++r) {
      rows_.emplace_back(rows + r * width, rows + (r + 1) * width);
    }
    *handed = n;
    return true;
  }
  uint64_t count() const override { return rows_.size(); }
  const std::vector<std::vector<NodeId>>& rows() const { return rows_; }
  std::vector<std::vector<NodeId>>& rows() { return rows_; }

 private:
  std::vector<std::vector<NodeId>> rows_;
};

/// Forwards each binding with its columns permuted: out[v] =
/// in[mapping[v]]. The runtime's answer-graph cache executes queries in
/// canonical variable order (query/canonical.h) and uses this to hand
/// the request sink rows back in the submitted query's variable order
/// (`mapping[v]` = canonical position of variable v). A batch is
/// permuted into one reused flat buffer and forwarded as one batch.
class RemapSink : public Sink {
 public:
  RemapSink(Sink* inner, std::vector<VarId> mapping)
      : inner_(inner), mapping_(std::move(mapping)) {}

  bool Emit(const std::vector<NodeId>& binding) override {
    Permute(binding.data(), 1, binding.size());
    return inner_->Emit(out_);
  }
  bool EmitBatch(const NodeId* rows, size_t n, size_t width,
                 size_t* handed) override {
    Permute(rows, n, width);
    return inner_->EmitBatch(out_.data(), n, mapping_.size(), handed);
  }
  uint64_t count() const override { return inner_->count(); }

 private:
  /// Writes the `n` permuted rows into out_.
  void Permute(const NodeId* rows, size_t n, size_t width);

  Sink* inner_;
  std::vector<VarId> mapping_;
  std::vector<NodeId> out_;  // permuted rows, reused across calls
};

/// Caps the rows a run may hand to the request sink. A row beyond the
/// budget is refused (never forwarded) and returning false asks the
/// engine to stop — engines treat a declining sink as a result, not an
/// error, so a budget-clamped run finishes with OK and the runtime
/// reports kBudgetExhausted from the `exhausted` flag. The flag is only
/// raised by an actual refusal: a result with exactly `budget` rows
/// completes naturally and reports kCompleted (at the price of the
/// engine producing one surplus row to discover the end).
class RowBudgetSink : public Sink {
 public:
  RowBudgetSink(Sink* inner, uint64_t budget)
      : inner_(inner), budget_(budget) {}

  bool Emit(const std::vector<NodeId>& binding) override {
    if (count_ >= budget_) {
      exhausted_ = true;
      return false;
    }
    const bool inner_wants_more = inner_->Emit(binding);
    ++count_;
    return inner_wants_more;
  }
  /// Forwards the rows that fit the budget as one batch; the first row
  /// past it is refused and counts as handed, as in the per-row loop.
  bool EmitBatch(const NodeId* rows, size_t n, size_t width,
                 size_t* handed) override;
  uint64_t count() const override { return count_; }
  bool exhausted() const { return exhausted_; }

 private:
  Sink* inner_;
  uint64_t budget_;
  uint64_t count_ = 0;
  bool exhausted_ = false;
};

/// Per-worker front for a shared sink during parallel enumeration.
///
/// Sinks are not thread-safe, so each worker emits into its own SinkShard,
/// which buffers rows row-major and hands the whole buffer to the shared
/// inner sink in one EmitBatch call under the shared mutex. Draining is
/// opportunistic: once `batch` rows are buffered the shard only
/// try_locks, and a shard that finds another one draining keeps
/// producing — retrying every `batch` rows — instead of convoying behind
/// the lock. Only a buffer at its cap (kCapBatches x `batch` rows) waits
/// for the lock, which bounds the memory a shard holds.
///
/// When the inner sink declines a row (LIMIT-style consumers), the shard
/// raises the shared stop flag; other shards observe it on their next
/// Emit and stop producing, and rows still buffered after the stop are
/// discarded, never handed to the inner sink.
class alignas(kCacheLineBytes) SinkShard : public Sink {
 public:
  /// Buffer cap in batches: the most rows a shard holds while another
  /// shard drains.
  static constexpr size_t kCapBatches = 8;

  SinkShard(Sink* inner, std::mutex* mu, std::atomic<bool>* stop,
            size_t batch = 256)
      : inner_(inner), mu_(mu), stop_(stop),
        batch_(std::max<size_t>(1, batch)), cap_(batch_ * kCapBatches) {}

  bool Emit(const std::vector<NodeId>& binding) override {
    if (stop_->load(std::memory_order_relaxed)) return false;
    // Steady-state buffering is a memcpy into reused capacity — no
    // per-row allocation on the hot path.
    if (width_ == 0) {
      width_ = binding.size();
      buffer_.reserve(cap_ * width_);
    }
    buffer_.insert(buffer_.end(), binding.begin(), binding.end());
    ++buffered_rows_;
    if (buffered_rows_ % batch_ != 0) return true;
    if (buffered_rows_ >= cap_) return Flush();
    std::unique_lock<std::mutex> lock(*mu_, std::try_to_lock);
    if (!lock.owns_lock()) return true;  // another shard drains: produce on
    return DrainLocked();
  }

  /// Drains the buffer to the inner sink, waiting for the lock. Returns
  /// false if production should stop. Call once more after the parallel
  /// loop so the tail batch is not lost.
  bool Flush() {
    if (buffered_rows_ == 0) {
      return !stop_->load(std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(*mu_);
    return DrainLocked();
  }

  /// Rows actually handed to the inner sink by this shard.
  uint64_t count() const override { return forwarded_; }

  /// Rows buffered and not yet drained (never more than kCapBatches x
  /// `batch`).
  size_t buffered_rows() const { return buffered_rows_; }

 private:
  /// Hands the whole buffer to the inner sink; `mu_` must be held.
  bool DrainLocked() {
    if (!stop_->load(std::memory_order_relaxed)) {
      size_t handed = 0;
      if (!inner_->EmitBatch(buffer_.data(), buffered_rows_, width_,
                             &handed)) {
        stop_->store(true, std::memory_order_relaxed);
      }
      forwarded_ += handed;
    }
    buffer_.clear();
    buffered_rows_ = 0;
    return !stop_->load(std::memory_order_relaxed);
  }

  Sink* inner_;
  std::mutex* mu_;
  std::atomic<bool>* stop_;
  size_t batch_;
  size_t cap_;
  size_t width_ = 0;
  size_t buffered_rows_ = 0;
  std::vector<NodeId> buffer_;  // row-major, buffered_rows_ x width_
  uint64_t forwarded_ = 0;
};

}  // namespace wireframe

#endif  // WIREFRAME_EXEC_SINK_H_
