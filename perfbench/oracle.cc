#include "oracle.h"

#include <cstdio>

#include "exec/baselines.h"
#include "util/hash.h"

namespace wireframe {
namespace perfbench {

void Fingerprint::Add(const NodeId* row, const std::vector<uint32_t>& perm) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (uint32_t col : perm) h = Mix64(h ^ (uint64_t{row[col]} + 1));
  ++rows;
  sum_a += h;
  sum_b += Mix64(h ^ 0xd6e8feb86659fd93ull);
}

void Fingerprint::Merge(const Fingerprint& other) {
  rows += other.rows;
  sum_a += other.sum_a;
  sum_b += other.sum_b;
}

std::string Fingerprint::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%llu rows, hash %016llx%016llx",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(sum_a),
                static_cast<unsigned long long>(sum_b));
  return buf;
}

std::vector<uint32_t> IdentityPerm(uint32_t width) {
  std::vector<uint32_t> perm(width);
  for (uint32_t i = 0; i < width; ++i) perm[i] = i;
  return perm;
}

Result<std::vector<Fingerprint>> ComputeReferences(
    const Database& db, const Catalog& catalog,
    const std::vector<QueryGraph>& queries) {
  std::vector<Fingerprint> refs;
  refs.reserve(queries.size());
  BacktrackEngine engine;
  for (const QueryGraph& query : queries) {
    // The reference enumerates the plain conjunctive query: aggregates
    // are checked against its row count.
    QueryGraph plain = query;
    plain.SetAggregate({});
    const std::vector<uint32_t> perm = IdentityPerm(plain.NumVars());
    HashingSink sink(&perm, /*timed=*/false);
    WF_RETURN_NOT_OK(
        engine.Run(db, catalog, plain, EngineOptions{}, &sink).status());
    refs.push_back(sink.fingerprint());
  }
  return refs;
}

bool HashingSink::Emit(const std::vector<NodeId>& binding) {
  Clock::time_point start;
  if (timed_) {
    start = Clock::now();
    if (emits_ == 0) first_emit_ = start;
  }
  if (fingerprint_.rows == corrupt_row_) {
    scratch_ = binding;
    scratch_[0] ^= 1;
    fingerprint_.Add(scratch_.data(), *perm_);
  } else {
    fingerprint_.Add(binding.data(), *perm_);
  }
  ++emits_;
  if (timed_) {
    emit_seconds_ +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  return true;
}

}  // namespace perfbench
}  // namespace wireframe
