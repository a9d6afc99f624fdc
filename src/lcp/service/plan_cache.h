#ifndef LCP_SERVICE_PLAN_CACHE_H_
#define LCP_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lcp/plan/plan.h"
#include "lcp/service/canonical.h"

namespace lcp {

/// An immutable cached planning result. Handed out as
/// shared_ptr<const CachedPlan> so a reader can keep executing a plan that
/// was concurrently evicted or superseded.
struct CachedPlan {
  QueryFingerprint fingerprint;
  /// The epoch the plan was admitted under. The service keys entries by a
  /// *combined* epoch — schema epoch in the high bits, source-availability
  /// epoch in the low bits (DESIGN.md §10) — so either a schema change or a
  /// quarantine/recovery transition makes the entry unreachable. Raw-epoch
  /// callers (tests, direct users) are unaffected: the cache only compares
  /// epochs for equality and order.
  uint64_t epoch = 0;
  Plan plan;
  double cost = 0;
  /// True when the plan was produced with a non-empty excluded-method mask —
  /// a failover detour around quarantined sources. Responses served from it
  /// are marked degraded: a cheaper primary plan may exist once the outage
  /// heals (the epoch bump on recovery makes this entry unreachable then).
  bool detour = false;
};

/// Point-in-time counter snapshot. All counters are cumulative since
/// construction and updated with relaxed atomics (the snapshot is lock-free
/// and monotone, not cross-counter consistent).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;             ///< All lookups that returned nullptr.
  uint64_t stale_misses = 0;       ///< Misses that dropped an old-epoch entry.
  uint64_t inserts = 0;            ///< New entries admitted.
  uint64_t replacements = 0;       ///< Inserts superseding a resident entry.
  /// Inserts not admitted: the resident entry is a cheaper same-epoch plan
  /// or a plan of a newer epoch.
  uint64_t admission_rejects = 0;
  uint64_t evictions = 0;          ///< LRU capacity evictions.
  uint64_t invalidations = 0;      ///< Entries dropped by EvictBelowEpoch.
  /// Occupancy gauges (unlike the counters above, these take each shard's
  /// mutex briefly — stats() is an ops/test probe, not a hot path).
  uint64_t entries = 0;                 ///< Total resident entries.
  std::vector<uint64_t> shard_entries;  ///< Resident entries per shard.
};

/// A sharded, epoch-aware LRU cache from canonical query fingerprints to
/// plans — the serving layer's amortization of proof search (the paper's
/// plans depend only on the query shape and the schema, never on the data).
///
/// Concurrency: lookups and inserts touch exactly one shard, guarded by that
/// shard's mutex; distinct fingerprints spread across shards by hash, so N
/// worker threads contend only when they race on α-equivalent queries.
/// Counters are lock-free atomics.
///
/// Epochs: each resident entry records the schema epoch it was planned
/// under. A lookup under a different epoch is a miss that also drops the
/// stale entry — constraint or access-method changes invalidate by
/// construction, with no stop-the-world flush. EvictBelowEpoch additionally
/// reclaims all stale entries eagerly.
///
/// Admission is cost-aware: inserting a plan for a key that already holds a
/// *cheaper* same-epoch plan is rejected (the incumbent is refreshed
/// instead), so a budget-truncated anytime search can never clobber a
/// better plan found by an earlier, luckier request. An insert under an
/// epoch older than the resident entry's is not admitted either: a search
/// that outlived an epoch change must not evict a current plan.
class PlanCache {
 public:
  struct Options {
    /// Rounded up to a power of two; at least 1.
    size_t num_shards = 8;
    /// Max entries per shard; at least 1.
    size_t capacity_per_shard = 128;
  };

  explicit PlanCache(const Options& options);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `fingerprint` at `epoch` and promotes it to
  /// most-recently-used, or nullptr on miss (including an epoch mismatch,
  /// which drops the stale entry). Pass `count_stats = false` for internal
  /// re-checks (e.g. a coalition leader closing the miss-to-join race) so a
  /// single request never counts two lookups against the hit rate.
  std::shared_ptr<const CachedPlan> Lookup(const QueryFingerprint& fingerprint,
                                           uint64_t epoch,
                                           bool count_stats = true);

  /// Inserts `plan` under (fingerprint, epoch), evicting the shard's LRU
  /// entry if at capacity. Returns the resident entry for the key after the
  /// call: the new plan, or the kept cheaper same-epoch incumbent; an insert
  /// older than the resident entry's epoch returns the new plan uncached.
  /// `detour` marks a failover plan (see CachedPlan::detour).
  std::shared_ptr<const CachedPlan> Insert(const QueryFingerprint& fingerprint,
                                           uint64_t epoch, Plan plan,
                                           double cost, bool detour = false);

  /// Drops every entry whose epoch is strictly below `epoch`. O(size); call
  /// after a schema change if stale entries should release memory eagerly
  /// rather than lazily on their next lookup.
  void EvictBelowEpoch(uint64_t epoch);

  /// Total resident entries (sums shard sizes; takes each shard mutex).
  size_t size() const;

  /// Counter snapshot. Counters are read lock-free; the occupancy gauges
  /// (entries / shard_entries) take each shard's mutex briefly, so this is
  /// an ops/test probe rather than a hot-path call.
  PlanCacheStats stats() const;

  /// Copies every resident entry's shared_ptr, all shards and all epochs,
  /// in shard order (MRU first within a shard). The snapshot writer's
  /// enumeration point; callers filter by epoch and detour themselves. Each
  /// shard is locked only while it is copied, so entries inserted or evicted
  /// concurrently may or may not appear — fine for a best-effort snapshot.
  std::vector<std::shared_ptr<const CachedPlan>> Entries() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedPlan> plan;
  };
  /// Keyed by the full canonical key (hash pre-checked via the map's hasher,
  /// string equality guards against 64-bit collisions).
  struct Shard {
    std::mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> map;
  };

  Shard& ShardFor(const QueryFingerprint& fingerprint) {
    return *shards_[fingerprint.hash & shard_mask_];
  }

  size_t shard_mask_ = 0;
  size_t capacity_per_shard_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stale_misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> replacements_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace lcp

#endif  // LCP_SERVICE_PLAN_CACHE_H_
