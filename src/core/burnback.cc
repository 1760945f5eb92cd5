#include "core/burnback.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "util/logging.h"
#include "util/timer.h"

namespace wireframe {

namespace {

/// Seed deaths per morsel when a drain applies the fork rule. The
/// parallel drain splits its worklist by owning variable rather than
/// into morsels, so this is the per-thread share a drain must reach
/// twice over before partitioning pays.
constexpr uint64_t kSeedMorsel = 256;

}  // namespace

bool Burnback::AliveExcept(VarId v, NodeId c, uint32_t except) const {
  bool touched = false;
  for (uint32_t f : ag_->IncidentSets(v)) {
    if (f == except || !ag_->IsMaterialized(f)) continue;
    touched = true;
    if (ag_->CountAt(f, v, c) == 0) return false;
  }
  return touched;
}

void Burnback::KillOne(const Death& d) {
  for (uint32_t f : ag_->IncidentSets(d.var)) {
    if (!ag_->IsMaterialized(f)) continue;
    PairSetBuilder& set = ag_->Set(f);
    const bool at_src = ag_->SrcVar(f) == d.var;
    const VarId other = at_src ? ag_->DstVar(f) : ag_->SrcVar(f);

    // Single reverse sweep over the raw adjacency list: Erase itself is
    // the tombstone filter, so no snapshot copy is needed (and EraseSrc
    // asserts the erased count matches the live count exactly).
    auto on_erased = [&](NodeId w) {
      ++pairs_erased_;
      if (ag_->CountAt(f, other, w) == 0) {
        worklist_.push_back({other, w, d.depth + 1});
      }
    };
    if (at_src) {
      set.EraseSrc(d.node, on_erased);
    } else {
      set.EraseDst(d.node, on_erased);
    }
  }
}

void Burnback::DrainSerial() {
  while (!worklist_.empty()) {
    const Death d = worklist_.back();
    worklist_.pop_back();
    max_depth_ = std::max(max_depth_, d.depth);
    KillOne(d);
  }
}

void Burnback::DrainParallel() {
  ThreadPool* pool = options_.fork.pool();
  const uint32_t num_shards = pool->num_threads();

  // One short mutex per edge set: a death at each endpoint of the same
  // set may be processed by different shards, and every set mutation
  // (and count read feeding death detection) happens under the set's
  // lock, so the 1→0 count transition is observed exactly once.
  std::vector<std::mutex> set_mu(ag_->NumEdgeSets());

  struct Shard {
    /// Deaths this shard owns and has accepted (single-consumer).
    std::vector<Death> local;
    /// MPSC inbox: deaths handed off by other shards.
    std::mutex inbox_mu;
    std::vector<Death> inbox;
    uint64_t erased = 0;
    uint64_t handoffs = 0;
    uint32_t max_depth = 0;
  };
  std::vector<Shard> shards(num_shards);
  for (const Death& d : worklist_) {
    shards[d.var % num_shards].local.push_back(d);
  }
  // Deaths enqueued anywhere but not yet processed. Incremented before a
  // death is pushed and decremented after it is processed, so the count
  // can only read zero once every queue is empty.
  std::atomic<uint64_t> pending{worklist_.size()};
  worklist_.clear();

  auto enqueue = [&](Shard& me, uint32_t my_index, const Death& d) {
    pending.fetch_add(1, std::memory_order_relaxed);
    const uint32_t owner = d.var % num_shards;
    if (owner == my_index) {
      me.local.push_back(d);
      return;
    }
    ++me.handoffs;
    std::lock_guard<std::mutex> lock(shards[owner].inbox_mu);
    shards[owner].inbox.push_back(d);
  };

  auto process = [&](Shard& me, uint32_t my_index, const Death& d) {
    me.max_depth = std::max(me.max_depth, d.depth);
    for (uint32_t f : ag_->IncidentSets(d.var)) {
      if (!ag_->IsMaterialized(f)) continue;
      const bool at_src = ag_->SrcVar(f) == d.var;
      const VarId other = at_src ? ag_->DstVar(f) : ag_->SrcVar(f);
      std::lock_guard<std::mutex> lock(set_mu[f]);
      PairSetBuilder& set = ag_->Set(f);
      auto on_erased = [&](NodeId w) {
        ++me.erased;
        if (ag_->CountAt(f, other, w) == 0) {
          enqueue(me, my_index, {other, w, d.depth + 1});
        }
      };
      if (at_src) {
        set.EraseSrc(d.node, on_erased);
      } else {
        set.EraseDst(d.node, on_erased);
      }
    }
  };

  // Shards drain in rounds: each round runs one non-blocking drain loop
  // per shard on the pool (bodies exit when their queues are momentarily
  // empty rather than spinning, so the round terminates even when the
  // pool serializes the shard loops onto one thread). A handoff that
  // lands in a shard whose loop already exited is picked up next round;
  // every round with pending deaths processes at least one, so the
  // outer loop terminates.
  while (pending.load(std::memory_order_acquire) > 0) {
    ParallelForOptions pf;
    pf.morsel_size = 1;
    pf.weight = options_.weight;
    const Status st = pool->ParallelFor(
        num_shards, pf, [&](uint32_t, uint64_t begin, uint64_t) {
          Shard& me = shards[begin];
          const uint32_t my_index = static_cast<uint32_t>(begin);
          for (;;) {
            if (me.local.empty()) {
              std::lock_guard<std::mutex> lock(me.inbox_mu);
              me.local.swap(me.inbox);
            }
            if (me.local.empty()) break;
            const Death d = me.local.back();
            me.local.pop_back();
            process(me, my_index, d);
            pending.fetch_sub(1, std::memory_order_release);
          }
        });
    WF_CHECK(st.ok()) << "burnback drain has no deadline";

    // A cascade that narrows below the fork rule's floor — e.g. a long
    // dependency chain alternating between owners — would otherwise pay
    // one task-group barrier per level for inherently sequential work.
    // Pull the leftovers back and finish on the serial drain. Safe
    // without the inbox locks: ParallelFor is a barrier, no body runs.
    if (!options_.fork.Forks(pending.load(std::memory_order_acquire),
                             kSeedMorsel)) {
      for (Shard& shard : shards) {
        worklist_.insert(worklist_.end(), shard.local.begin(),
                         shard.local.end());
        worklist_.insert(worklist_.end(), shard.inbox.begin(),
                         shard.inbox.end());
        shard.local.clear();
        shard.inbox.clear();
      }
      break;
    }
  }

  for (const Shard& shard : shards) {
    pairs_erased_ += shard.erased;
    handoffs_ += shard.handoffs;
    max_depth_ = std::max(max_depth_, shard.max_depth);
  }
  DrainSerial();  // finish any below-floor tail (no-op when empty)
}

void Burnback::Drain() {
  if (options_.fork.Forks(worklist_.size(), kSeedMorsel)) {
    DrainParallel();
  } else {
    DrainSerial();
  }
}

uint64_t Burnback::KillNode(VarId v, NodeId c) {
  const Stopwatch watch;
  const uint64_t before = pairs_erased_;
  worklist_.push_back({v, c, 1});
  Drain();
  seconds_ += watch.ElapsedSeconds();
  return pairs_erased_ - before;
}

uint64_t Burnback::ErasePair(uint32_t index, NodeId u, NodeId v) {
  const Stopwatch watch;
  const uint64_t before = pairs_erased_;
  PairSetBuilder& set = ag_->Set(index);
  if (!set.Erase(u, v)) {
    seconds_ += watch.ElapsedSeconds();
    return 0;
  }
  ++pairs_erased_;
  if (ag_->CountAt(index, ag_->SrcVar(index), u) == 0) {
    worklist_.push_back({ag_->SrcVar(index), u, 1});
  }
  if (ag_->CountAt(index, ag_->DstVar(index), v) == 0) {
    worklist_.push_back({ag_->DstVar(index), v, 1});
  }
  Drain();
  seconds_ += watch.ElapsedSeconds();
  return pairs_erased_ - before;
}

uint64_t Burnback::PruneAfterExtension(uint32_t index, bool src_was_touched,
                                       bool dst_was_touched) {
  const Stopwatch watch;
  const uint64_t before = pairs_erased_;
  const VarId endpoints[2] = {ag_->SrcVar(index), ag_->DstVar(index)};
  const bool was_touched[2] = {src_was_touched, dst_was_touched};

  for (int side = 0; side < 2; ++side) {
    if (!was_touched[side]) continue;
    const VarId v = endpoints[side];

    // Pilot: smallest materialized incident set other than `index`.
    uint32_t pilot = UINT32_MAX;
    uint64_t pilot_size = UINT64_MAX;
    for (uint32_t f : ag_->IncidentSets(v)) {
      if (f == index || !ag_->IsMaterialized(f)) continue;
      const PairSetBuilder& set = ag_->Set(f);
      const uint64_t size = ag_->SrcVar(f) == v ? set.DistinctSrcCount()
                                                : set.DistinctDstCount();
      if (size < pilot_size) {
        pilot_size = size;
        pilot = f;
      }
    }
    if (pilot == UINT32_MAX) continue;  // var was not actually constrained

    // Seed the worklist first: KillOne mutates the sets being scanned,
    // and a bulk seed list is what the parallel drain partitions.
    const PairSetBuilder& pilot_set = ag_->Set(pilot);
    auto consider = [&](NodeId c) {
      if (ag_->CountAt(index, v, c) == 0 && AliveExcept(v, c, index)) {
        worklist_.push_back({v, c, 1});
      }
    };
    if (ag_->SrcVar(pilot) == v) {
      pilot_set.ForEachSrc(consider);
    } else {
      pilot_set.ForEachDst(consider);
    }
    Drain();
  }
  seconds_ += watch.ElapsedSeconds();
  return pairs_erased_ - before;
}

}  // namespace wireframe
