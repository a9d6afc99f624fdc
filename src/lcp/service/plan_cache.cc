#include "lcp/service/plan_cache.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <utility>

namespace lcp {

/// Flight lifecycle. Every transition happens under `mutex`. The ones that
/// end a flight also hold its shard's mutex and take it out of the shard's
/// table in the same step, so a flight in a table is always planning or
/// leaderless:
///
///   kPlanning ──PublishPlan / PublishStatus──▶ kResolved
///      │                                       (followers: kPlan / kStatus)
///      │     ──Abandon, followers──▶ kLeaderless ──first waking follower──▶
///      │                             back to kPlanning (it gets kPromoted)
///      └──Abandon without followers, a newer probe, EvictBelowEpoch──▶
///                                    kInvalidated
///
/// Followers poll `should_detach` between condition-variable waits, so a
/// follower's own cancel or deadline exits only that follower.
struct PlanCache::Flight {
  enum class State : uint8_t {
    kPlanning,
    kLeaderless,
    kResolved,
    kInvalidated,
  };

  Flight(QueryFingerprint fingerprint_in, uint64_t epoch_in)
      : fingerprint(std::move(fingerprint_in)), epoch(epoch_in) {}

  /// Immutable; readable without `mutex`.
  const QueryFingerprint fingerprint;
  const uint64_t epoch;

  std::mutex mutex;
  std::condition_variable cv;
  State state = State::kPlanning;
  /// Set on kResolved: the published plan, or null with the definite status.
  std::shared_ptr<const CachedPlan> plan;
  Status status;
  size_t waiters = 0;
};

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// How long a follower sleeps between detach-condition polls when no state
/// transition wakes it. Transitions notify the condition variable, so this
/// bounds only the latency of noticing the follower's *own* cancel/deadline.
constexpr std::chrono::milliseconds kDetachPollInterval{2};

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

PlanCache::Probe PlanCache::ProbeLocked(Shard& shard, const std::string& key,
                                        uint64_t epoch) {
  Probe probe;
  if (epoch < shard.floor) {
    // Evicted epoch: whatever the key holds now belongs to a newer one.
    probe.behind = true;
    return probe;
  }
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return probe;
  const uint64_t resident = it->second->plan->epoch;
  if (resident == epoch) {
    // Promote to most-recently-used.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    probe.hit = it->second->plan;
  } else if (resident < epoch) {
    // Planned under an older epoch: dead weight, drop it now.
    shard.lru.erase(it->second);
    shard.map.erase(it);
    probe.dropped_older = true;
  } else {
    // The probe is the stale one; the resident plan still serves.
    probe.behind = true;
  }
  return probe;
}

void PlanCache::CountProbe(bool hit, bool dropped_older) {
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (dropped_older) stale_misses_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    const QueryFingerprint& fingerprint, uint64_t epoch) {
  Shard& shard = ShardFor(fingerprint);
  Probe probe;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    probe = ProbeLocked(shard, fingerprint.key, epoch);
  }
  CountProbe(probe.hit != nullptr, probe.dropped_older);
  return std::move(probe.hit);
}

PlanCache::Ticket PlanCache::Acquire(const QueryFingerprint& fingerprint,
                                     uint64_t epoch) {
  Shard& shard = ShardFor(fingerprint);
  Ticket ticket;
  Probe probe;
  std::shared_ptr<Flight> replaced;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    probe = ProbeLocked(shard, fingerprint.key, epoch);
    if (probe.hit != nullptr) {
      ticket.kind = Ticket::Kind::kHit;
      ticket.plan = std::move(probe.hit);
    } else if (!probe.behind) {
      std::shared_ptr<Flight>& slot = shard.flights[fingerprint.key];
      if (slot != nullptr && slot->epoch == epoch) {
        std::lock_guard<std::mutex> flight_lock(slot->mutex);
        ++slot->waiters;
        ticket.kind = Ticket::Kind::kFollow;
        ticket.flight = slot;
      } else if (slot == nullptr || slot->epoch < epoch) {
        if (slot != nullptr) {
          // The resident flight searches for a dead epoch, so its plan can
          // serve no one: wake its followers to re-plan, and take the slot.
          std::lock_guard<std::mutex> flight_lock(slot->mutex);
          slot->state = Flight::State::kInvalidated;
          replaced = std::move(slot);
        }
        slot = std::make_shared<Flight>(fingerprint, epoch);
        ticket.kind = Ticket::Kind::kLead;
        ticket.flight = slot;
      }
      // Otherwise a newer flight holds the slot: the ticket stays kBehind.
    }
  }
  if (replaced != nullptr) replaced->cv.notify_all();
  CountProbe(ticket.kind == Ticket::Kind::kHit, probe.dropped_older);
  return ticket;
}

void PlanCache::PublishPlan(const std::shared_ptr<Flight>& flight,
                            std::shared_ptr<const CachedPlan> plan) {
  Resolve(flight, std::move(plan), Status());
}

void PlanCache::PublishStatus(const std::shared_ptr<Flight>& flight,
                              Status status) {
  Resolve(flight, nullptr, std::move(status));
}

void PlanCache::Resolve(const std::shared_ptr<Flight>& flight,
                        std::shared_ptr<const CachedPlan> plan,
                        Status status) {
  {
    Shard& shard = ShardFor(flight->fingerprint);
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::lock_guard<std::mutex> flight_lock(flight->mutex);
    // An invalidated flight has already left the table, and its followers
    // already re-plan.
    if (flight->state == Flight::State::kInvalidated) return;
    shard.flights.erase(flight->fingerprint.key);
    flight->state = Flight::State::kResolved;
    flight->plan = std::move(plan);
    flight->status = std::move(status);
  }
  flight->cv.notify_all();
}

void PlanCache::Abandon(const std::shared_ptr<Flight>& flight) {
  {
    Shard& shard = ShardFor(flight->fingerprint);
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::lock_guard<std::mutex> flight_lock(flight->mutex);
    if (flight->state == Flight::State::kInvalidated) return;
    if (flight->waiters > 0) {
      flight->state = Flight::State::kLeaderless;
    } else {
      // Nobody to promote: the flight dissolves, so the next request for
      // this key leads its own.
      shard.flights.erase(flight->fingerprint.key);
      flight->state = Flight::State::kInvalidated;
    }
  }
  flight->cv.notify_all();
}

PlanCache::WaitResult PlanCache::Wait(
    const std::shared_ptr<Flight>& flight,
    const std::function<bool()>& should_detach) {
  std::unique_lock<std::mutex> lock(flight->mutex);
  WaitResult result;
  for (;;) {
    if (flight->state == Flight::State::kResolved) {
      if (flight->plan != nullptr) {
        result.outcome = Outcome::kPlan;
        result.plan = flight->plan;
      } else {
        result.outcome = Outcome::kStatus;
        result.status = flight->status;
      }
      break;
    }
    if (flight->state == Flight::State::kInvalidated) {
      result.outcome = Outcome::kInvalidated;
      break;
    }
    if (flight->state == Flight::State::kLeaderless) {
      // The first to wake takes over the leader's obligations on this same
      // flight, even if its own cancel fired: the promoted caller re-checks
      // and abandons again, handing off to the next follower.
      flight->state = Flight::State::kPlanning;
      result.outcome = Outcome::kPromoted;
      break;
    }
    if (should_detach && should_detach()) {
      result.outcome = Outcome::kDetached;
      break;
    }
    flight->cv.wait_for(lock, kDetachPollInterval);
  }
  --flight->waiters;
  return result;
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
    if (epoch < shard.floor) {
      // The search began before an EvictBelowEpoch and finished after it:
      // its plan can serve no current request, so it must not take an LRU
      // slot from one that can.
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      return entry;
    }
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
  std::vector<std::shared_ptr<Flight>> invalidated;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->floor = std::max(shard->floor, epoch);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->plan->epoch < epoch) {
        shard->map.erase(it->plan->fingerprint.key);
        it = shard->lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    for (auto it = shard->flights.begin(); it != shard->flights.end();) {
      if (it->second->epoch < epoch) {
        {
          std::lock_guard<std::mutex> flight_lock(it->second->mutex);
          it->second->state = Flight::State::kInvalidated;
        }
        invalidated.push_back(std::move(it->second));
        it = shard->flights.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Followers wake after the walk, outside every shard mutex.
  for (const std::shared_ptr<Flight>& flight : invalidated) {
    flight->cv.notify_all();
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

size_t PlanCache::waiting() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& slot : shard->flights) {
      std::lock_guard<std::mutex> flight_lock(slot.second->mutex);
      total += slot.second->waiters;
    }
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
