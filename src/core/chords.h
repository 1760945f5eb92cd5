#ifndef WIREFRAME_CORE_CHORDS_H_
#define WIREFRAME_CORE_CHORDS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/answer_graph.h"
#include "core/burnback.h"
#include "core/fork_rule.h"
#include "planner/triangulator.h"
#include "util/result.h"
#include "util/timer.h"

namespace wireframe {

/// Knobs of one MaterializeChords run.
struct ChordMaterializeOptions {
  Deadline deadline;
  /// Phase 1's fork rule (core/fork_rule.h): each chord's triangle join
  /// shards over the triangle's frontier pairs, and each intersection
  /// pass over the surviving chord pairs, exactly like regular edge
  /// extension, when that input clears the rule's floor; below it (and
  /// under the default rule) the pass runs serially. Either way the
  /// materialized chord sets are identical (pairs are canonicalized into
  /// ascending packed order before insertion, so the AG is
  /// thread-count-invariant).
  ForkRule fork;
  /// Cooperative cancellation, polled amortized like the deadline.
  std::atomic<bool>* cancel = nullptr;
  /// Scheduler weight of every task-group this run submits to the pool
  /// (service class of the owning query; see ParallelForOptions::weight).
  uint32_t weight = 1;
};

/// Runtime counterpart of the Triangulator's chordification (paper §4):
/// materializes chord pair sets and, optionally, runs the edge-burnback
/// fixpoint over all triangles.
///
/// "During evaluation, a chord is maintained as the intersection of the
/// materialized joins of the opposite two edges for each triangle in which
/// it participates." Node burnback treats materialized chords like any
/// other edge set, which keeps node sets minimal; only the edge-burnback
/// extension culls spurious *edges* (the paper's experiments run without
/// it, so both modes are first-class here).
class ChordEvaluator {
 public:
  ChordEvaluator(const Chordification& chordification, AnswerGraphBuilder* ag,
                 Burnback* burnback)
      : chordification_(&chordification), ag_(ag), burnback_(burnback) {}

  /// Registers one AG slot per chord. Call once, before query-edge
  /// materialization (unmaterialized slots do not constrain anything).
  void RegisterChordSlots();

  /// Materializes every chord, innermost (DP-tree leaves) first, applying
  /// node burnback after each. Requires all query edges materialized.
  /// Adds the pairs it retrieves to `walks`. Deadline expiry and
  /// cancellation are polled amortized (per morsel on the parallel path,
  /// every few thousand probes on the serial one).
  Status MaterializeChords(const ChordMaterializeOptions& options,
                           uint64_t* walks);

  /// Edge burnback: repeatedly enforces, for every triangle, that each
  /// side pair is witnessed by compatible pairs of the other two sides;
  /// deletions cascade through node burnback. Runs to fixpoint. Returns
  /// the number of pairs erased.
  Result<uint64_t> RunEdgeBurnback(const Deadline& deadline);

  /// AG slot index assigned to chord `chord_index`.
  uint32_t ChordSlot(uint32_t chord_index) const {
    return chord_slots_[chord_index];
  }

 private:
  /// Resolved, oriented view of one triangle: slot ids for the three
  /// sides plus their endpoint vars (u, v, w).
  struct ResolvedTriangle {
    uint32_t uv_slot, uw_slot, wv_slot;
    VarId u, v, w;
  };

  /// Maps a TriangleSide to its AG slot.
  uint32_t SlotOf(const TriangleSide& side) const;

  /// Resolves a chord-or-base triangle into slots and oriented vars;
  /// `uv_slot` is the slot of the closing side.
  ResolvedTriangle Resolve(const Triangle& tri, uint32_t uv_slot) const;

  /// All triangles of the chordification, resolved (filled lazily once
  /// every chord slot exists).
  std::vector<ResolvedTriangle> AllTriangles() const;

  const Chordification* chordification_;
  AnswerGraphBuilder* ag_;
  Burnback* burnback_;
  std::vector<uint32_t> chord_slots_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_CHORDS_H_
