#ifndef WIREFRAME_CORE_BURNBACK_H_
#define WIREFRAME_CORE_BURNBACK_H_

#include <cstdint>
#include <vector>

#include "core/answer_graph.h"
#include "core/fork_rule.h"

namespace wireframe {

/// Knobs of one Burnback instance (how cascades drain).
struct BurnbackOptions {
  /// Phase 1's fork rule (core/fork_rule.h): a cascade drains on the
  /// rule's pool when its seed deaths clear the rule's floor, serially
  /// otherwise (the default rule never forks). Below the floor the
  /// per-drain setup (shards, per-set mutexes, one task-group per round)
  /// costs more than it saves.
  ForkRule fork;
  /// Scheduler weight of the drain's task-groups on a shared pool
  /// (service class of the owning query; see ParallelForOptions::weight).
  uint32_t weight = 1;
};

/// Cascading node burnback (paper §3): "nodes in the AG that failed to
/// extend are removed. This 'node burnback' cascades."
///
/// A node dies at a variable as soon as any materialized incident edge set
/// holds no live pair for it; killing it erases its incident pairs from
/// every materialized incident set, which may starve neighbor nodes at the
/// opposite variables — a worklist drains the cascade to fixpoint. The
/// fixpoint is exactly arc consistency over the materialized edge sets
/// (tests certify this against a naive oracle), and arc consistency is a
/// monotone closure: the surviving pair sets are the unique maximal
/// arc-consistent subset, independent of the order deaths are processed
/// in. That confluence is what licenses the parallel drain below.
///
/// Parallel drain (ROADMAP: "partitioned worklists with ownership by
/// variable"): the cascade worklist is partitioned by owning variable
/// into one shard per pool worker (owner(v) = v mod workers). A death for
/// variable v is processed only by v's owner; deaths discovered for
/// another partition are handed off through that shard's MPSC inbox.
/// Erasures lock the affected edge set (one short per-set mutex — a death
/// at each endpoint of the same set may land in different shards), and
/// shards drain in rounds on the shared ThreadPool until a global
/// in-flight counter hits zero, the task-group weight riding in. A drain
/// goes parallel only when its seed deaths clear the fork rule's floor
/// (BurnbackOptions::fork), and finishes serially once its pending
/// deaths fall below it.
///
/// Because the fixpoint is confluent and PairSetBuilder erasure is
/// order-oblivious (tombstones land wherever the erased keys hash,
/// adjacency lists are untouched), the surviving pair sets — and
/// pairs_erased() — are identical for every thread count; only the
/// diagnostic depth/handoff counters are schedule-dependent.
///
/// Cost accounting: every erased pair was added by an earlier edge walk,
/// so burnback is amortized into extension cost (paper §4); the class
/// still counts erased pairs for diagnostics.
class Burnback {
 public:
  explicit Burnback(AnswerGraphBuilder* ag, BurnbackOptions options = {})
      : ag_(ag), options_(options) {}

  /// Kills node c at variable v and drains the cascade. Returns the
  /// number of pairs erased (cascade included).
  uint64_t KillNode(VarId v, NodeId c);

  /// Erases one pair from edge set `index` (edge burnback's entry point)
  /// and drains any resulting node deaths. Returns pairs erased.
  uint64_t ErasePair(uint32_t index, NodeId u, NodeId v);

  /// After materializing edge set `index`: kills every previously-alive
  /// endpoint candidate that failed to extend into `index`, then drains.
  /// `src_was_touched` / `dst_was_touched` say whether the endpoint vars
  /// were already constrained before this extension (freshly touched
  /// variables need no pruning: the new set defines their candidates).
  uint64_t PruneAfterExtension(uint32_t index, bool src_was_touched,
                               bool dst_was_touched);

  /// Total pairs erased through this Burnback instance. Thread-count
  /// invariant.
  uint64_t pairs_erased() const { return pairs_erased_; }

  /// Deepest cascade level any death reached (seed deaths are depth 1).
  /// Diagnostic: schedule-dependent under the parallel drain.
  uint32_t max_cascade_depth() const { return max_depth_; }

  /// Deaths handed off across worklist partitions (0 on serial drains).
  /// Diagnostic: schedule-dependent.
  uint64_t handoffs() const { return handoffs_; }

  /// Wall seconds spent inside this instance's public entry points
  /// (seed scans + cascade drains), summed across calls.
  double seconds() const { return seconds_; }

 private:
  struct Death {
    VarId var;
    NodeId node;
    /// Cascade level: 1 for seeds, parent + 1 for starved neighbors.
    uint32_t depth;
  };

  /// Erases all pairs incident to (d.var, d.node), queueing starved
  /// neighbors onto worklist_. Serial-drain body.
  void KillOne(const Death& d);
  /// Drains worklist_ to fixpoint, in parallel when the fork rule admits
  /// the seed count, serially otherwise.
  void Drain();
  void DrainSerial();
  void DrainParallel();

  /// True iff c is alive at v considering all materialized incident sets
  /// except `except` (UINT32_MAX to consider all).
  bool AliveExcept(VarId v, NodeId c, uint32_t except) const;

  AnswerGraphBuilder* ag_;
  BurnbackOptions options_;
  std::vector<Death> worklist_;
  uint64_t pairs_erased_ = 0;
  uint32_t max_depth_ = 0;
  uint64_t handoffs_ = 0;
  double seconds_ = 0.0;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_BURNBACK_H_
