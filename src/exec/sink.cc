#include "exec/sink.h"

#include <algorithm>

namespace wireframe {

// Out-of-line destructor anchors the vtable in this translation unit.
Sink::~Sink() = default;

bool Sink::EmitBatch(const NodeId* rows, size_t n, size_t width,
                     size_t* handed) {
  std::vector<NodeId> row(width);
  *handed = 0;
  for (size_t r = 0; r < n; ++r) {
    std::copy_n(rows + r * width, width, row.begin());
    ++*handed;
    if (!Emit(row)) return false;
  }
  return true;
}

void RemapSink::Permute(const NodeId* rows, size_t n, size_t width) {
  const size_t out_width = mapping_.size();
  out_.resize(n * out_width);
  NodeId* out = out_.data();
  for (size_t r = 0; r < n; ++r, rows += width, out += out_width) {
    for (size_t v = 0; v < out_width; ++v) out[v] = rows[mapping_[v]];
  }
}

bool RowBudgetSink::EmitBatch(const NodeId* rows, size_t n, size_t width,
                              size_t* handed) {
  const size_t take =
      static_cast<size_t>(std::min<uint64_t>(n, budget_ - count_));
  size_t forwarded = 0;
  const bool inner_wants_more =
      take == 0 || inner_->EmitBatch(rows, take, width, &forwarded);
  count_ += forwarded;
  *handed = forwarded;
  if (!inner_wants_more) return false;
  if (take < n) {
    exhausted_ = true;
    ++*handed;
    return false;
  }
  return true;
}

}  // namespace wireframe
