#ifndef WIREFRAME_UTIL_FLAT_HASH_H_
#define WIREFRAME_UTIL_FLAT_HASH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "util/common.h"
#include "util/hash.h"
#include "util/logging.h"

namespace wireframe {

/// Open-addressing (linear probing) hash set of packed 64-bit pair keys.
/// Purpose-built for PairSet's live-pair index, which std::unordered_set
/// made the hottest spot of answer-graph generation: one flat array, no
/// per-node allocation, tombstone deletion (burnback deletes in bulk and
/// never re-inserts, so tombstone accumulation is bounded by inserts).
class PairKeySet {
 public:
  PairKeySet() { Rehash(16); }

  /// Inserts `key`; returns false if already present.
  bool Insert(uint64_t key) {
    if ((size_ + tombstones_ + 1) * 8 >= capacity() * 7) {
      Rehash(capacity() * 2);
    }
    // Inline probe that additionally remembers the first tombstone
    // passed: after confirming absence the tombstone slot is reused.
    // Kept local to Insert (not a side effect of Probe) so the const
    // read paths stay pure — Contains runs concurrently from parallel
    // phase-2 workers.
    const size_t mask = capacity() - 1;
    size_t i = static_cast<size_t>(Mix64(key)) & mask;
    size_t first_tombstone = kNoSlot;
    for (;;) {
      const uint64_t slot = slots_[i];
      if (slot == key) return false;
      if (slot == kEmpty) break;
      if (slot == kTombstone && first_tombstone == kNoSlot) {
        first_tombstone = i;
      }
      i = (i + 1) & mask;
    }
    if (first_tombstone != kNoSlot) {
      i = first_tombstone;
      --tombstones_;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  bool Contains(uint64_t key) const {
    return slots_[Probe(key)] == key;
  }

  /// Removes `key`; returns false if absent.
  bool Erase(uint64_t key) {
    const size_t i = Probe(key);
    if (slots_[i] != key) return false;
    slots_[i] = kTombstone;
    --size_;
    ++tombstones_;
    return true;
  }

  uint64_t Size() const { return size_; }

  /// Invokes fn(key) for every live key.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t slot : slots_) {
      if (slot != kEmpty && slot != kTombstone) fn(slot);
    }
  }

  void Reserve(uint64_t n) {
    size_t want = 16;
    while (want * 7 < (n + 1) * 8) want *= 2;
    if (want > capacity()) Rehash(want);
  }

 private:
  // Two reserved key values. Real keys are PackPair(u, v) with u, v valid
  // node ids; both reserved patterns use kInvalidNode components that
  // never occur in stored pairs.
  static constexpr uint64_t kEmpty = ~0ull;
  static constexpr uint64_t kTombstone = ~0ull - 1;
  static constexpr size_t kNoSlot = ~size_t{0};

  size_t capacity() const { return slots_.size(); }

  /// Returns the slot of `key` if present, else the first kEmpty slot of
  /// its probe chain. Pure — no side effects — so it is safe to call
  /// concurrently from parallel readers (Contains during phase 2).
  size_t Probe(uint64_t key) const {
    const size_t mask = capacity() - 1;
    size_t i = static_cast<size_t>(Mix64(key)) & mask;
    for (;;) {
      const uint64_t slot = slots_[i];
      if (slot == key || slot == kEmpty) return i;
      i = (i + 1) & mask;
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(new_capacity, kEmpty);
    tombstones_ = 0;
    const size_t mask = new_capacity - 1;
    for (uint64_t key : old) {
      if (key == kEmpty || key == kTombstone) continue;
      size_t i = static_cast<size_t>(Mix64(key)) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = key;
    }
  }

  std::vector<uint64_t> slots_;
  uint64_t size_ = 0;
  uint64_t tombstones_ = 0;
};

/// Open-addressing map from NodeId to V, same rationale as PairKeySet.
/// No deletion: PairSetBuilder's adjacency/count maps never shrink.
template <typename V>
class NodeMap {
 public:
  NodeMap() { Rehash(16); }

  /// Returns the value slot for `key`, default-constructing it if new.
  V& operator[](NodeId key) {
    if ((size_ + 1) * 8 >= capacity() * 7) Rehash(capacity() * 2);
    size_t i = Probe(key);
    if (keys_[i] != key) {
      keys_[i] = key;
      values_[i] = V();
      ++size_;
    }
    return values_[i];
  }

  /// Returns the value for `key` or nullptr.
  V* Find(NodeId key) {
    const size_t i = Probe(key);
    return keys_[i] == key ? &values_[i] : nullptr;
  }
  const V* Find(NodeId key) const {
    const size_t i = Probe(key);
    return keys_[i] == key ? &values_[i] : nullptr;
  }

  uint64_t Size() const { return size_; }

  /// Invokes fn(key, value&) for every entry.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmptyKey) fn(keys_[i], values_[i]);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmptyKey) fn(keys_[i], values_[i]);
    }
  }

 private:
  static constexpr NodeId kEmptyKey = kInvalidNode;

  size_t capacity() const { return keys_.size(); }

  size_t Probe(NodeId key) const {
    WF_DCHECK(key != kEmptyKey);
    const size_t mask = capacity() - 1;
    size_t i = static_cast<size_t>(Mix64(key)) & mask;
    while (keys_[i] != key && keys_[i] != kEmptyKey) i = (i + 1) & mask;
    return i;
  }

  void Rehash(size_t new_capacity) {
    std::vector<NodeId> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_capacity, kEmptyKey);
    values_.assign(new_capacity, V());
    const size_t mask = new_capacity - 1;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      size_t j = static_cast<size_t>(Mix64(old_keys[i])) & mask;
      while (keys_[j] != kEmptyKey) j = (j + 1) & mask;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  std::vector<NodeId> keys_;
  std::vector<V> values_;
  uint64_t size_ = 0;
};

}  // namespace wireframe

#endif  // WIREFRAME_UTIL_FLAT_HASH_H_
