#include "core/chords.h"

#include <algorithm>
#include <utility>

#include "util/hash.h"
#include "util/interrupt.h"
#include "util/logging.h"

namespace wireframe {

namespace {

/// Endpoint-candidate items per morsel on the parallel chord paths. Each
/// item expands into a partner scan (like a frontier node in regular edge
/// extension), so morsels stay small to balance skewed degrees.
constexpr uint64_t kChordMorsel = 128;

/// Serial-path interrupt probes (deadline + cancel) run on this cadence.
constexpr uint32_t kProbeStride = 4096;

/// Sorts ascending and drops duplicates — the canonical form chord pair
/// lists are kept in (see MaterializeChords).
void SortUnique(std::vector<uint64_t>& keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

/// Iterates partners of `node` (sitting at var `from`) across slot `slot`
/// of `ag`, i.e. all y with an oriented live pair (node@from, y@other).
template <typename Fn>
void ForEachPartner(const AnswerGraphBuilder& ag, uint32_t slot, VarId from,
                    NodeId node, Fn&& fn) {
  const PairSetBuilder& set = ag.Set(slot);
  if (ag.SrcVar(slot) == from) {
    set.ForEachFwd(node, fn);
  } else {
    WF_DCHECK(ag.DstVar(slot) == from);
    set.ForEachBwd(node, fn);
  }
}

/// True iff slot holds the oriented pair (x@from_var, y@other_var).
bool ContainsOriented(const AnswerGraphBuilder& ag, uint32_t slot,
                      VarId from_var, NodeId x, NodeId y) {
  const PairSetBuilder& set = ag.Set(slot);
  return ag.SrcVar(slot) == from_var ? set.Contains(x, y)
                                     : set.Contains(y, x);
}

/// Invokes fn(a, b) for every live pair of `slot`, reoriented so `a` sits
/// at var `u`.
template <typename Fn>
void ForEachOrientedPair(const AnswerGraphBuilder& ag, uint32_t slot, VarId u,
                         Fn&& fn) {
  const bool straight = ag.SrcVar(slot) == u;
  ag.Set(slot).ForEachPair([&](NodeId x, NodeId y) {
    if (straight) {
      fn(x, y);
    } else {
      fn(y, x);
    }
  });
}

/// Snapshots slot's live pairs reoriented so .first sits at var `u` —
/// the indexable frontier the parallel chord join shards over.
std::vector<std::pair<NodeId, NodeId>> CollectOrientedPairs(
    const AnswerGraphBuilder& ag, uint32_t slot, VarId u) {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(ag.Set(slot).Size());
  ForEachOrientedPair(ag, slot, u,
                      [&](NodeId a, NodeId b) { out.emplace_back(a, b); });
  return out;
}

}  // namespace

uint32_t ChordEvaluator::SlotOf(const TriangleSide& side) const {
  if (side.is_chord) {
    WF_CHECK(side.index < chord_slots_.size());
    return chord_slots_[side.index];
  }
  return side.index;
}

void ChordEvaluator::RegisterChordSlots() {
  WF_CHECK(chord_slots_.empty()) << "RegisterChordSlots called twice";
  for (const Chord& chord : chordification_->chords) {
    chord_slots_.push_back(ag_->AddChordSlot(chord.u, chord.v));
  }
}

ChordEvaluator::ResolvedTriangle ChordEvaluator::Resolve(
    const Triangle& tri, uint32_t uv_slot) const {
  ResolvedTriangle r;
  r.uv_slot = uv_slot;
  r.uw_slot = SlotOf(tri.side_uw);
  r.wv_slot = SlotOf(tri.side_wv);
  r.w = tri.apex;
  // u is side_uw's endpoint other than the apex; v likewise for side_wv.
  r.u = ag_->SrcVar(r.uw_slot) == tri.apex ? ag_->DstVar(r.uw_slot)
                                           : ag_->SrcVar(r.uw_slot);
  r.v = ag_->SrcVar(r.wv_slot) == tri.apex ? ag_->DstVar(r.wv_slot)
                                           : ag_->SrcVar(r.wv_slot);
  // Sanity: the closing side must connect u and v.
  WF_DCHECK((ag_->SrcVar(uv_slot) == r.u && ag_->DstVar(uv_slot) == r.v) ||
            (ag_->SrcVar(uv_slot) == r.v && ag_->DstVar(uv_slot) == r.u));
  return r;
}

std::vector<ChordEvaluator::ResolvedTriangle> ChordEvaluator::AllTriangles()
    const {
  std::vector<ResolvedTriangle> out;
  for (size_t c = 0; c < chordification_->chords.size(); ++c) {
    for (const Triangle& tri : chordification_->chords[c].triangles) {
      out.push_back(Resolve(tri, chord_slots_[c]));
    }
  }
  for (size_t t = 0; t < chordification_->base_triangles.size(); ++t) {
    out.push_back(Resolve(chordification_->base_triangles[t],
                          chordification_->base_triangle_closing_edge[t]));
  }
  return out;
}

Status ChordEvaluator::MaterializeChords(
    const ChordMaterializeOptions& options, uint64_t* walks) {
  WF_CHECK(chord_slots_.size() == chordification_->chords.size())
      << "RegisterChordSlots must run first";

  // Serial-path interrupt probe, amortized over kProbeStride partner
  // scans; the parallel paths get the same checks per morsel from
  // ParallelFor.
  InterruptProbe probe(options.deadline, options.cancel, kProbeStride);

  // Parallel driver shared by the triangle join and the intersection
  // pass: shards [0, n) into kChordMorsel morsels on the pool, where
  // body(m, begin, end, walks) handles one whole morsel and charges its
  // retrievals to `walks`; per-morsel walk counts merge at the barrier.
  // Deadline/cancel surface as the corresponding non-OK status.
  auto sharded = [&](uint64_t n, auto&& body) -> Status {
    const uint64_t num_morsels = (n + kChordMorsel - 1) / kChordMorsel;
    std::vector<uint64_t> morsel_walks(num_morsels, 0);
    ParallelForOptions pf;
    pf.morsel_size = kChordMorsel;
    pf.deadline = options.deadline;
    pf.cancel = options.cancel;
    pf.weight = options.weight;
    const Status st = options.fork.pool()->ParallelFor(
        n, pf, [&](uint32_t, uint64_t begin, uint64_t end) {
          const uint64_t m = begin / kChordMorsel;
          body(m, begin, end, morsel_walks[m]);
        });
    if (!st.ok()) return st;
    for (uint64_t w : morsel_walks) *walks += w;
    return Status::OK();
  };

  // Innermost chords first: the chord vector is built in DP-tree preorder,
  // so reverse order guarantees a chord's own-triangle sides (query edges
  // or deeper chords) are already materialized.
  for (size_t c = chordification_->chords.size(); c-- > 0;) {
    const Chord& chord = chordification_->chords[c];
    const uint32_t slot = chord_slots_[c];

    // Working chord pairs, packed (chord.u endpoint, chord.v endpoint).
    // Kept sorted ascending after the first triangle: the canonical order
    // makes the materialized PairSetBuilder — including adjacency order —
    // identical for every thread count.
    std::vector<uint64_t> pairs;
    bool first_triangle = true;
    for (const Triangle& tri : chord.triangles) {
      if (!ag_->IsMaterialized(SlotOf(tri.side_uw)) ||
          !ag_->IsMaterialized(SlotOf(tri.side_wv))) {
        // Parent triangles reference sibling chords materialized later;
        // their constraint is enforced by edge burnback instead.
        continue;
      }
      ResolvedTriangle r = Resolve(tri, slot);
      // Orient so `a` ranges over chord.u and `b` over chord.v.
      const bool chord_straight = r.u == chord.u;
      if (first_triangle) {
        // Join side_uw ⋈ side_wv on the apex, sharded over side_uw's
        // endpoint-candidate pairs like regular edge extension. Only the
        // parallel path snapshots the frontier (sharding needs random
        // access); the serial path streams it.
        if (options.fork.Forks(ag_->Set(r.uw_slot).Size(), kChordMorsel)) {
          const std::vector<std::pair<NodeId, NodeId>> frontier =
              CollectOrientedPairs(*ag_, r.uw_slot, r.u);
          std::vector<std::vector<uint64_t>> found(
              (frontier.size() + kChordMorsel - 1) / kChordMorsel);
          WF_RETURN_NOT_OK(sharded(
              frontier.size(), [&](uint64_t m, uint64_t begin, uint64_t end,
                                   uint64_t& morsel_walks) {
                for (uint64_t i = begin; i < end; ++i) {
                  const auto [a, w] = frontier[i];
                  ForEachPartner(
                      *ag_, r.wv_slot, r.w, w, [&](NodeId b) {
                        ++morsel_walks;
                        found[m].push_back(chord_straight ? PackPair(a, b)
                                                          : PackPair(b, a));
                      });
                }
                // Dedup inside the morsel, so a skewed join holds
                // duplicates only morsel-locally, never in the merge.
                SortUnique(found[m]);
              }));
          size_t total = 0;
          for (const std::vector<uint64_t>& chunk : found) {
            total += chunk.size();
          }
          pairs.reserve(total);
          for (const std::vector<uint64_t>& chunk : found) {
            pairs.insert(pairs.end(), chunk.begin(), chunk.end());
          }
        } else {
          // Duplicates are compacted whenever the buffer doubles, so the
          // serial path also peaks at O(distinct + recent walks), not
          // O(total walks). The probe is sticky, so the visitor is cheap
          // once interrupted.
          size_t next_compact = 1024;
          ForEachOrientedPair(*ag_, r.uw_slot, r.u, [&](NodeId a, NodeId w) {
            if (probe.Hit()) return;
            ForEachPartner(*ag_, r.wv_slot, r.w, w, [&](NodeId b) {
              ++*walks;
              pairs.push_back(chord_straight ? PackPair(a, b)
                                             : PackPair(b, a));
            });
            if (pairs.size() >= next_compact) {
              SortUnique(pairs);
              next_compact = std::max<size_t>(1024, pairs.size() * 2);
            }
          });
          if (probe.triggered()) {
            return probe.StatusFor("chord materialization");
          }
        }
        // Canonicalize: different (a,w) frontier items can produce the
        // same chord pair, so dedup; ascending order fixes the insertion
        // order below independently of sharding.
        SortUnique(pairs);
        first_triangle = false;
      } else {
        // Intersect with this triangle's join: keep a pair iff some apex
        // witness supports it. Sharded over the surviving pairs.
        //
        // `pairs` is sorted on the packed key, so consecutive pairs share
        // their high endpoint x. The partner scan keyed on x is loop-
        // invariant across such a run: hoist it into a scratch snapshot
        // (collected once per run, per morsel) and probe the other side
        // per partner — with early exit on the first witness, which the
        // streaming ForEachPartner visitor could not do. Which side x
        // sits on depends on the chord orientation: straight chords put
        // x at r.u (hoist the uw scan, probe wv); flipped chords put x
        // at r.v (hoist the wv scan, probe uw). Walk counts charge the
        // hoisted side's scanned partners — identical for every morsel
        // split, so thread-count-invariant.
        std::vector<uint8_t> keep(pairs.size(), 0);
        struct PartnerScratch {
          NodeId key = kInvalidNode;
          bool valid = false;
          std::vector<NodeId> partners;
        };
        const uint32_t hoist_slot = chord_straight ? r.uw_slot : r.wv_slot;
        const VarId hoist_from = chord_straight ? r.u : r.v;
        const uint32_t probe_slot = chord_straight ? r.wv_slot : r.uw_slot;
        const VarId probe_from = chord_straight ? r.w : r.u;
        auto support_one = [&](uint64_t i, PartnerScratch& scratch,
                               uint64_t& walk_count) {
          const auto [x, y] = UnpackPair(pairs[i]);
          if (!scratch.valid || scratch.key != x) {
            scratch.partners.clear();
            ForEachPartner(*ag_, hoist_slot, hoist_from, x,
                           [&](NodeId w) { scratch.partners.push_back(w); });
            scratch.key = x;
            scratch.valid = true;
          }
          bool supported = false;
          for (const NodeId w : scratch.partners) {
            ++walk_count;
            // Straight: witness (w@r.w, y@r.v) in wv. Flipped: witness
            // (y@r.u, w@r.w) in uw — either way the probe pairs the
            // low endpoint y with the hoisted partner w.
            const NodeId first = chord_straight ? w : y;
            const NodeId second = chord_straight ? y : w;
            if (ContainsOriented(*ag_, probe_slot, probe_from, first,
                                 second)) {
              supported = true;
              break;
            }
          }
          keep[i] = supported ? 1 : 0;
        };
        if (options.fork.Forks(pairs.size(), kChordMorsel)) {
          WF_RETURN_NOT_OK(sharded(
              pairs.size(), [&](uint64_t, uint64_t begin, uint64_t end,
                                uint64_t& morsel_walks) {
                PartnerScratch scratch;
                for (uint64_t i = begin; i < end; ++i) {
                  support_one(i, scratch, morsel_walks);
                }
              }));
        } else {
          PartnerScratch scratch;
          for (uint64_t i = 0; i < pairs.size(); ++i) {
            if (probe.Hit()) return probe.StatusFor("chord materialization");
            support_one(i, scratch, *walks);
          }
        }
        // In-order compaction preserves the canonical ascending order.
        size_t out = 0;
        for (size_t i = 0; i < pairs.size(); ++i) {
          if (keep[i] != 0) pairs[out++] = pairs[i];
        }
        pairs.resize(out);
      }
    }
    WF_CHECK(!first_triangle)
        << "chord " << c << " had no materializable triangle";

    PairSetBuilder& set = ag_->Set(slot);
    // The canonical list is exact (sorted, deduped), so pre-size the
    // live-pair index once instead of doubling through the bulk insert.
    set.Reserve(pairs.size());
    for (uint64_t key : pairs) {
      auto [a, b] = UnpackPair(key);
      set.Add(a, b);
    }
    ag_->MarkMaterialized(slot);
    // Chords constrain node sets too: burn back endpoints that lost all
    // support (both endpoints were necessarily touched already). Burnback
    // drains at this barrier, as after regular edge extension.
    burnback_->PruneAfterExtension(slot, /*src_was_touched=*/true,
                                   /*dst_was_touched=*/true);
    WF_RETURN_NOT_OK(probe.CheckNow("chord materialization"));
  }
  return Status::OK();
}

Result<uint64_t> ChordEvaluator::RunEdgeBurnback(const Deadline& deadline) {
  const std::vector<ResolvedTriangle> triangles = AllTriangles();
  uint64_t erased_total = 0;

  // Pair deletions cascade both through node burnback (inside ErasePair)
  // and across triangles (a deleted pair may strand a pair of another
  // triangle), so iterate whole passes until quiescent.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ResolvedTriangle& t : triangles) {
      if (deadline.Expired()) return Status::TimedOut("edge burnback");

      // Each side must be witnessed by the other two.
      struct Doomed {
        uint32_t slot;
        NodeId x, y;  // native orientation of the slot
      };
      std::vector<Doomed> doomed;

      // Closing side (u,v): witness ∃w (a,w)∈uw ∧ (w,b)∈wv.
      ForEachOrientedPair(*ag_, t.uv_slot, t.u, [&](NodeId a, NodeId b) {
        bool ok = false;
        ForEachPartner(*ag_, t.uw_slot, t.u, a, [&](NodeId w) {
          if (!ok && ContainsOriented(*ag_, t.wv_slot, t.w, w, b)) ok = true;
        });
        if (!ok) {
          const bool straight = ag_->SrcVar(t.uv_slot) == t.u;
          doomed.push_back({t.uv_slot, straight ? a : b, straight ? b : a});
        }
      });
      // Side (u,w): witness ∃b (w,b)∈wv ∧ (a,b)∈uv.
      ForEachOrientedPair(*ag_, t.uw_slot, t.u, [&](NodeId a, NodeId w) {
        bool ok = false;
        ForEachPartner(*ag_, t.wv_slot, t.w, w, [&](NodeId b) {
          if (!ok && ContainsOriented(*ag_, t.uv_slot, t.u, a, b)) ok = true;
        });
        if (!ok) {
          const bool straight = ag_->SrcVar(t.uw_slot) == t.u;
          doomed.push_back({t.uw_slot, straight ? a : w, straight ? w : a});
        }
      });
      // Side (w,v): witness ∃a (a,w)∈uw ∧ (a,b)∈uv.
      ForEachOrientedPair(*ag_, t.wv_slot, t.w, [&](NodeId w, NodeId b) {
        bool ok = false;
        ForEachPartner(*ag_, t.uw_slot, t.w, w, [&](NodeId a) {
          if (!ok && ContainsOriented(*ag_, t.uv_slot, t.u, a, b)) ok = true;
        });
        if (!ok) {
          const bool straight = ag_->SrcVar(t.wv_slot) == t.w;
          doomed.push_back({t.wv_slot, straight ? w : b, straight ? b : w});
        }
      });

      for (const Doomed& d : doomed) {
        const uint64_t erased = burnback_->ErasePair(d.slot, d.x, d.y);
        if (erased > 0) {
          erased_total += erased;
          changed = true;
        }
      }
    }
  }
  return erased_total;
}

}  // namespace wireframe
