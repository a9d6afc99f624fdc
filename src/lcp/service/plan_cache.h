#ifndef LCP_SERVICE_PLAN_CACHE_H_
#define LCP_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lcp/base/status.h"
#include "lcp/plan/plan.h"
#include "lcp/service/canonical.h"

namespace lcp {

/// An immutable cached planning result. Handed out as
/// shared_ptr<const CachedPlan> so a reader can keep executing a plan that
/// was concurrently evicted or superseded.
struct CachedPlan {
  QueryFingerprint fingerprint;
  /// The epoch the plan was admitted under. The cache only compares epochs
  /// for equality and order. The service keys entries by its serving epoch,
  /// schema epoch in the high bits and source-availability epoch in the low
  /// bits (DESIGN.md §10), so either a schema change or a
  /// quarantine/recovery transition makes the entry unreachable.
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
  uint64_t misses = 0;             ///< Lookups and Acquires without a hit.
  uint64_t stale_misses = 0;       ///< Misses that dropped an older entry.
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
/// plans, and the single-flight table of the searches that fill it: the
/// serving layer pays one proof search per (query shape, epoch), because the
/// paper's plans depend only on the query shape and the schema, never on the
/// data.
///
/// Concurrency: every call touches exactly one shard, guarded by that
/// shard's mutex; distinct fingerprints spread across shards by hash, so N
/// worker threads contend only when they race on α-equivalent queries. A
/// shard holds its resident plans and, beside them, at most one in-flight
/// search (a *flight*) per key. Lock order: shard mutex, then flight mutex.
/// Followers wait on their flight's condition variable, never under a shard
/// mutex. Counters are lock-free atomics.
///
/// Epochs: one rule for entries and flights. A probe at epoch e meets the
/// key's resident entry or flight at epoch r:
///   - r == e: a hit, or the caller joins the flight;
///   - r <  e: the entry is dropped (a stale miss) and the flight is
///     invalidated, so its followers wake to re-plan;
///   - r >  e: the probe is the stale one and changes nothing (a plain
///     miss; Acquire reports kBehind).
/// EvictBelowEpoch(f) applies the second case to every shard at once and
/// raises every shard's epoch floor to f: a probe below the floor is the
/// stale one whether or not the key holds anything (a plain miss, kBehind),
/// and an insert below it is declined like an insert older than the
/// resident entry.
///
/// Admission is cost-aware: inserting a plan for a key that already holds a
/// *cheaper* same-epoch plan is rejected (the incumbent is refreshed
/// instead), so a budget-truncated anytime search can never clobber a
/// better plan found by an earlier, luckier request. An insert under an
/// epoch older than the resident entry's, or below the floor, is not
/// admitted either: a search that outlived an epoch change must not evict a
/// current plan.
class PlanCache {
 public:
  struct Options {
    /// Rounded up to a power of two; at least 1.
    size_t num_shards = 8;
    /// Max entries per shard; at least 1.
    size_t capacity_per_shard = 128;
  };

  /// One in-flight proof search for a (key, epoch), shared by its leader
  /// and its followers (DESIGN.md §12).
  struct Flight;

  /// What Acquire found for a (fingerprint, epoch).
  struct Ticket {
    enum class Kind : uint8_t {
      kHit,     ///< `plan` is resident at the epoch.
      kLead,    ///< The caller leads `flight`: it searches, then calls
                ///< exactly one of PublishPlan, PublishStatus or Abandon.
      kFollow,  ///< The caller follows `flight` and must call Wait.
      kBehind,  ///< The key holds a newer epoch's plan or flight.
    };
    Kind kind = Kind::kBehind;
    std::shared_ptr<const CachedPlan> plan;  ///< Set iff kHit.
    std::shared_ptr<Flight> flight;          ///< Set iff kLead or kFollow.
  };

  /// How a follower's Wait ended.
  enum class Outcome : uint8_t {
    kPlan,         ///< The leader published a plan; execute it.
    kStatus,       ///< The leader published a definite failure.
    kPromoted,     ///< The leader abandoned; this follower now leads.
    kDetached,     ///< This follower's own cancel or deadline fired.
    kInvalidated,  ///< A newer epoch ended the flight; re-plan fresh.
  };

  struct WaitResult {
    Outcome outcome = Outcome::kInvalidated;
    std::shared_ptr<const CachedPlan> plan;  ///< Set iff kPlan.
    Status status;                           ///< Set iff kStatus.
  };

  explicit PlanCache(const Options& options);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `fingerprint` at `epoch` and promotes it to
  /// most-recently-used, or nullptr on a miss. Counts one hit or one miss.
  std::shared_ptr<const CachedPlan> Lookup(const QueryFingerprint& fingerprint,
                                           uint64_t epoch);

  /// Inserts `plan` under (fingerprint, epoch), evicting the shard's LRU
  /// entry if at capacity. Returns the resident entry for the key after the
  /// call: the new plan, or the kept cheaper same-epoch incumbent; an insert
  /// older than the resident entry's epoch or below the shard's floor
  /// returns the new plan uncached.
  /// `detour` marks a failover plan (see CachedPlan::detour).
  std::shared_ptr<const CachedPlan> Insert(const QueryFingerprint& fingerprint,
                                           uint64_t epoch, Plan plan,
                                           double cost, bool detour = false);

  /// Lookup and single-flight in one step under the shard mutex: a hit, or
  /// else a ticket to follow the flight for (fingerprint, epoch), or to lead
  /// a new one. Counts one hit or one miss.
  Ticket Acquire(const QueryFingerprint& fingerprint, uint64_t epoch);

  /// Leader: hands `plan` to every follower and dissolves the flight. A
  /// no-op on an invalidated flight. Insert the plan first, so that a
  /// request arriving after the flight dissolves hits it.
  void PublishPlan(const std::shared_ptr<Flight>& flight,
                   std::shared_ptr<const CachedPlan> plan);

  /// Leader: propagates a definite failure to every follower. Only use for
  /// outcomes that are properties of the query (it cannot be planned), not
  /// of this request (its deadline); for the latter use Abandon.
  void PublishStatus(const std::shared_ptr<Flight>& flight, Status status);

  /// Leader: steps down without a result (cancelled, out of budget). The
  /// first follower to wake is promoted: its Wait returns kPromoted and it
  /// takes over the leader's obligations on the same flight. With no
  /// followers the flight dissolves.
  void Abandon(const std::shared_ptr<Flight>& flight);

  /// Follower: blocks until the leader resolves the flight, this follower
  /// is promoted, the flight is invalidated, or `should_detach` (polled when
  /// set) returns true: it covers the follower's own cancel and deadline.
  WaitResult Wait(const std::shared_ptr<Flight>& flight,
                  const std::function<bool()>& should_detach);

  /// Drops every entry and invalidates every flight whose epoch is strictly
  /// below `epoch`, in one walk over the shards, and raises each shard's
  /// floor to `epoch` so no later call brings a dead epoch back. O(size);
  /// call after a schema change so stale entries release memory eagerly and
  /// followers of dead flights re-plan at once.
  void EvictBelowEpoch(uint64_t epoch);

  /// Total resident entries (sums shard sizes; takes each shard mutex).
  size_t size() const;

  /// Followers currently parked on flights (ops/test probe; takes every
  /// shard and flight mutex).
  size_t waiting() const;

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
    /// In-flight searches, at most one per key.
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights;
    /// Epochs below this are dead (the last EvictBelowEpoch).
    uint64_t floor = 0;
  };
  /// How a probe at some epoch met the key's resident entry.
  struct Probe {
    std::shared_ptr<const CachedPlan> hit;
    bool dropped_older = false;
    /// The probe's epoch is stale: below the floor, or older than the
    /// resident entry's.
    bool behind = false;
  };

  Shard& ShardFor(const QueryFingerprint& fingerprint) {
    return *shards_[fingerprint.hash & shard_mask_];
  }

  /// The epoch rule for the resident entry; call with the shard locked.
  static Probe ProbeLocked(Shard& shard, const std::string& key,
                           uint64_t epoch);
  void CountProbe(bool hit, bool dropped_older);
  /// Ends the flight with `plan` or, when it is null, `status`.
  void Resolve(const std::shared_ptr<Flight>& flight,
               std::shared_ptr<const CachedPlan> plan, Status status);

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
