#ifndef WIREFRAME_UTIL_COMMON_H_
#define WIREFRAME_UTIL_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace wireframe {

/// Identifier of a data-graph node (an RDF resource). Node ids are dense:
/// the dictionary assigns 0..num_nodes-1.
using NodeId = uint32_t;

/// Identifier of an edge label (an RDF predicate). Label ids are dense and
/// small (YAGO2s has 104 distinct predicates).
using LabelId = uint32_t;

/// Identifier of a query variable within one query graph (dense, small).
using VarId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
/// Sentinel for "no label".
inline constexpr LabelId kInvalidLabel = std::numeric_limits<LabelId>::max();
/// Sentinel for "no variable".
inline constexpr VarId kInvalidVar = std::numeric_limits<VarId>::max();

/// Alignment of per-worker state written on every row (enumeration
/// contexts, sink shards), so neighbouring workers never share a line.
inline constexpr size_t kCacheLineBytes = 64;

/// A directed labeled edge of the data graph: ⟨subject, predicate, object⟩.
struct Triple {
  NodeId subject = kInvalidNode;
  LabelId predicate = kInvalidLabel;
  NodeId object = kInvalidNode;

  friend bool operator==(const Triple&, const Triple&) = default;
  friend auto operator<=>(const Triple&, const Triple&) = default;
};

}  // namespace wireframe

#endif  // WIREFRAME_UTIL_COMMON_H_
