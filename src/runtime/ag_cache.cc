#include "runtime/ag_cache.h"

#include <utility>

#include "util/logging.h"

namespace wireframe {
namespace runtime {

AgCache::AgCache(std::vector<uint64_t> tenant_quota_bytes) {
  shards_.resize(tenant_quota_bytes.size());
  for (size_t i = 0; i < tenant_quota_bytes.size(); ++i) {
    shards_[i].quota = tenant_quota_bytes[i];
  }
}

std::shared_ptr<const CachedAg> AgCache::Lookup(size_t tenant,
                                                const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& shard = shards_[tenant];
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.counters.misses;
    return nullptr;
  }
  ++shard.counters.hits;
  ++it->second.hits;
  return it->second.value;
}

bool AgCache::BeginFill(size_t tenant, const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& shard = shards_[tenant];
  if (shard.entries.count(key) > 0) return false;  // raced a finished fill
  return shard.filling.insert(key).second;
}

void AgCache::EndFill(size_t tenant, const std::string& key,
                      std::shared_ptr<const CachedAg> value,
                      double build_seconds) {
  // Evicted AGs are destroyed after the lock drops: freeing a large CSR
  // under the cache mutex would stall every concurrent lookup.
  std::vector<std::shared_ptr<const CachedAg>> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Shard& shard = shards_[tenant];
    shard.filling.erase(key);
    if (value == nullptr) return;  // aborted fill
    WF_CHECK(value->ag != nullptr) << "a filled entry holds an AG";
    const uint64_t bytes = value->ag->FrozenByteSize();
    if (bytes > shard.quota) return;  // larger than the whole partition
    while (shard.counters.bytes + bytes > shard.quota) {
      // Cost x frequency: cheapest-to-keep leaves first.
      auto victim = shard.entries.end();
      double victim_score = 0.0;
      for (auto it = shard.entries.begin(); it != shard.entries.end();
           ++it) {
        const double score =
            it->second.build_seconds *
            (1.0 + static_cast<double>(it->second.hits));
        if (victim == shard.entries.end() || score < victim_score) {
          victim = it;
          victim_score = score;
        }
      }
      WF_CHECK(victim != shard.entries.end())
          << "quota accounting drifted: over quota with no entries";
      doomed.push_back(std::move(victim->second.value));
      shard.counters.bytes -= victim->second.bytes;
      --shard.counters.entries;
      ++shard.counters.evictions;
      shard.entries.erase(victim);
    }
    Entry entry;
    entry.value = std::move(value);
    entry.bytes = bytes;
    entry.build_seconds = build_seconds;
    const bool inserted = shard.entries.emplace(key, std::move(entry)).second;
    WF_CHECK(inserted) << "EndFill without a BeginFill claim";
    shard.counters.bytes += bytes;
    ++shard.counters.entries;
    ++shard.counters.inserts;
  }
}

AgCache::Counters AgCache::counters(size_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[tenant].counters;
}

}  // namespace runtime
}  // namespace wireframe
