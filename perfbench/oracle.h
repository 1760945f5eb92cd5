// Correctness gate of the benchmark: an order-independent fingerprint of
// a result's row multiset, the reference fingerprints computed by a
// baseline engine that shares no answer-graph code with Wireframe, and
// the hashing sink the embedded workloads deliver rows into.

#ifndef WIREFRAME_PERFBENCH_ORACLE_H_
#define WIREFRAME_PERFBENCH_ORACLE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/sink.h"
#include "query/query_graph.h"
#include "storage/database.h"
#include "util/result.h"

namespace wireframe {
namespace perfbench {

/// Row count plus two independent sums of per-row hashes. Sums commute,
/// so the fingerprint of a multiset does not depend on the order rows
/// arrive in, and a single altered, dropped or duplicated row changes it.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;

  /// Adds one row. Column i of the reference order is read from
  /// `row[perm[i]]`, so a result of a renamed query (whose columns follow
  /// its own variable order) hashes like the reference.
  void Add(const NodeId* row, const std::vector<uint32_t>& perm);
  void Merge(const Fingerprint& other);

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  std::string ToString() const;
};

/// Identity column order of a `width`-column result.
std::vector<uint32_t> IdentityPerm(uint32_t width);

/// Reference answer of every base query of a workload, computed with the
/// backtracking baseline (NJ), which enumerates straight from the triple
/// indexes and builds no answer graph.
Result<std::vector<Fingerprint>> ComputeReferences(
    const Database& db, const Catalog& catalog,
    const std::vector<QueryGraph>& queries);

/// Sink that fingerprints every row it receives. Optionally times its own
/// Emit calls (the traced run's `exec.sink` span) and the first Emit.
class HashingSink : public Sink {
 public:
  using Clock = std::chrono::steady_clock;

  HashingSink(const std::vector<uint32_t>* perm, bool timed)
      : perm_(perm), timed_(timed) {}

  bool Emit(const std::vector<NodeId>& binding) override;
  uint64_t count() const override { return fingerprint_.rows; }

  const Fingerprint& fingerprint() const { return fingerprint_; }
  uint64_t emits() const { return emits_; }
  /// Seconds spent inside Emit (timed sinks only).
  double emit_seconds() const { return emit_seconds_; }
  /// When the first row arrived (timed sinks only; epoch if none did).
  Clock::time_point first_emit() const { return first_emit_; }

  /// Test hook of the correctness gate: alters the value of the first
  /// column of row `row` before it is fingerprinted.
  void CorruptRow(uint64_t row) { corrupt_row_ = row; }

 private:
  const std::vector<uint32_t>* perm_;
  bool timed_;
  Fingerprint fingerprint_;
  uint64_t emits_ = 0;
  double emit_seconds_ = 0.0;
  Clock::time_point first_emit_{};
  uint64_t corrupt_row_ = UINT64_MAX;
  std::vector<NodeId> scratch_;
};

}  // namespace perfbench
}  // namespace wireframe

#endif  // WIREFRAME_PERFBENCH_ORACLE_H_
