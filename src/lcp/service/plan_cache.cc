#include "lcp/service/plan_cache.h"

#include <utility>

namespace lcp {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

PlanCache::PlanCache(const Options& options) {
  size_t shards = RoundUpToPowerOfTwo(options.num_shards == 0
                                          ? size_t{1}
                                          : options.num_shards);
  shard_mask_ = shards - 1;
  capacity_per_shard_ =
      options.capacity_per_shard == 0 ? size_t{1} : options.capacity_per_shard;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    const QueryFingerprint& fingerprint, uint64_t epoch, bool count_stats) {
  Shard& shard = ShardFor(fingerprint);
  std::shared_ptr<const CachedPlan> found;
  bool stale = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(fingerprint.key);
    if (it != shard.map.end()) {
      if (it->second->plan->epoch == epoch) {
        // Promote to most-recently-used.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        found = it->second->plan;
      } else {
        // Planned under a different schema epoch: dead weight, drop it now.
        shard.lru.erase(it->second);
        shard.map.erase(it);
        stale = true;
      }
    }
  }
  if (count_stats) {
    if (found != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (stale) stale_misses_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return found;
}

std::shared_ptr<const CachedPlan> PlanCache::Insert(
    const QueryFingerprint& fingerprint, uint64_t epoch, Plan plan,
    double cost, bool detour) {
  auto entry = std::make_shared<const CachedPlan>(
      CachedPlan{fingerprint, epoch, std::move(plan), cost, detour});
  Shard& shard = ShardFor(fingerprint);
  uint64_t evicted = 0;
  std::shared_ptr<const CachedPlan> resident;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(fingerprint.key);
    if (it != shard.map.end()) {
      const CachedPlan& incumbent = *it->second->plan;
      if (epoch < incumbent.epoch) {
        // A search that began before an epoch change finished after a plan
        // of the newer epoch was cached: keep that one, and let the caller
        // serve its own plan uncached.
        admission_rejects_.fetch_add(1, std::memory_order_relaxed);
        return entry;
      }
      if (incumbent.epoch == epoch && incumbent.cost <= cost) {
        // Cost-aware admission: never replace a cheaper (or equally cheap)
        // plan of the same epoch with a costlier one. Refresh recency so the
        // good plan stays hot.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        admission_rejects_.fetch_add(1, std::memory_order_relaxed);
        return it->second->plan;
      }
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      it->second->plan = entry;
      replacements_.fetch_add(1, std::memory_order_relaxed);
      return entry;
    }
    shard.lru.push_front(Entry{entry});
    shard.map.emplace(fingerprint.key, shard.lru.begin());
    while (shard.lru.size() > capacity_per_shard_) {
      shard.map.erase(shard.lru.back().plan->fingerprint.key);
      shard.lru.pop_back();
      ++evicted;
    }
    resident = entry;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return resident;
}

void PlanCache::EvictBelowEpoch(uint64_t epoch) {
  uint64_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->plan->epoch < epoch) {
        shard->map.erase(it->plan->fingerprint.key);
        it = shard->lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  }
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stale_misses = stale_misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.replacements = replacements_.load(std::memory_order_relaxed);
  s.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.shard_entries.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    s.shard_entries.push_back(shard->lru.size());
    s.entries += shard->lru.size();
  }
  return s;
}

std::vector<std::shared_ptr<const CachedPlan>> PlanCache::Entries() const {
  std::vector<std::shared_ptr<const CachedPlan>> out;
  out.reserve(size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const Entry& entry : shard->lru) out.push_back(entry.plan);
  }
  return out;
}

}  // namespace lcp
