#include "lcp/service/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lcp/base/strings.h"

namespace lcp {
namespace {

// Hand-built fingerprints: `hash` picks the shard, `key` is the map key, so
// tests can pin entries to one shard or spread them deliberately.
QueryFingerprint Fp(uint64_t hash, const std::string& key) {
  QueryFingerprint fp;
  fp.hash = hash;
  fp.key = key;
  return fp;
}

Plan NamedPlan(const std::string& name) {
  Plan plan;
  plan.output_table = name;
  return plan;
}

PlanCache::Options SingleShard(size_t capacity) {
  PlanCache::Options options;
  options.num_shards = 1;
  options.capacity_per_shard = capacity;
  return options;
}

TEST(PlanCacheTest, MissThenHit) {
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q1");
  EXPECT_EQ(cache.Lookup(fp, 1), nullptr);

  auto inserted = cache.Insert(fp, 1, NamedPlan("p1"), 10.0);
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(inserted->plan.output_table, "p1");
  EXPECT_EQ(inserted->epoch, 1u);

  auto hit = cache.Lookup(fp, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan.output_table, "p1");
  EXPECT_EQ(cache.size(), 1u);

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(PlanCacheTest, LruEvictionOrderWithPromotion) {
  PlanCache cache(SingleShard(2));
  QueryFingerprint a = Fp(1, "a"), b = Fp(2, "b"), c = Fp(3, "c");
  cache.Insert(a, 1, NamedPlan("a"), 1.0);
  cache.Insert(b, 1, NamedPlan("b"), 1.0);
  // Promote a to MRU; b becomes the LRU victim.
  ASSERT_NE(cache.Lookup(a, 1), nullptr);
  cache.Insert(c, 1, NamedPlan("c"), 1.0);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(b, 1), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(cache.Lookup(a, 1), nullptr);
  EXPECT_NE(cache.Lookup(c, 1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PlanCacheTest, CostAwareAdmissionKeepsCheaperIncumbent) {
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q");
  cache.Insert(fp, 1, NamedPlan("cheap"), 5.0);

  // A costlier same-epoch plan must not clobber the incumbent.
  auto resident = cache.Insert(fp, 1, NamedPlan("expensive"), 50.0);
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(resident->plan.output_table, "cheap");
  EXPECT_DOUBLE_EQ(resident->cost, 5.0);
  EXPECT_EQ(cache.stats().admission_rejects, 1u);

  // A cheaper plan replaces it.
  resident = cache.Insert(fp, 1, NamedPlan("cheaper"), 2.0);
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(resident->plan.output_table, "cheaper");
  EXPECT_EQ(cache.stats().replacements, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, AdmissionRejectRefreshesRecency) {
  PlanCache cache(SingleShard(2));
  QueryFingerprint a = Fp(1, "a"), b = Fp(2, "b"), c = Fp(3, "c");
  cache.Insert(a, 1, NamedPlan("a"), 1.0);
  cache.Insert(b, 1, NamedPlan("b"), 1.0);
  // Rejected re-insert of `a` still refreshes its recency, so `b` is evicted.
  cache.Insert(a, 1, NamedPlan("a2"), 9.0);
  cache.Insert(c, 1, NamedPlan("c"), 1.0);
  EXPECT_NE(cache.Lookup(a, 1), nullptr);
  EXPECT_EQ(cache.Lookup(b, 1), nullptr);
}

TEST(PlanCacheTest, EpochMismatchIsStaleMissAndDropsEntry) {
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q");
  cache.Insert(fp, 1, NamedPlan("old"), 5.0);

  EXPECT_EQ(cache.Lookup(fp, 2), nullptr);
  EXPECT_EQ(cache.size(), 0u) << "stale entry should be dropped on lookup";
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.stale_misses, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // A new-epoch plan is admitted even when costlier than the dead one was.
  auto resident = cache.Insert(fp, 2, NamedPlan("new"), 50.0);
  EXPECT_EQ(resident->plan.output_table, "new");
  EXPECT_NE(cache.Lookup(fp, 2), nullptr);
}

TEST(PlanCacheTest, NewEpochInsertReplacesStaleResident) {
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q");
  cache.Insert(fp, 1, NamedPlan("old"), 1.0);
  // Cost-aware admission only protects same-epoch incumbents.
  auto resident = cache.Insert(fp, 2, NamedPlan("new"), 100.0);
  EXPECT_EQ(resident->plan.output_table, "new");
  EXPECT_EQ(resident->epoch, 2u);
}

TEST(PlanCacheTest, OlderEpochInsertKeepsNewerResident) {
  // A search that began before an epoch change can finish after a plan of
  // the new epoch was cached: its late insert must not evict that plan.
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q");
  cache.Insert(fp, 2, NamedPlan("current"), 10.0);
  auto late = cache.Insert(fp, 1, NamedPlan("late"), 1.0);
  // The late request still serves the plan it found, uncached.
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->plan.output_table, "late");
  EXPECT_EQ(late->epoch, 1u);

  auto hit = cache.Lookup(fp, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan.output_table, "current");
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.admission_rejects, 1u);
  EXPECT_EQ(stats.replacements, 0u);
  EXPECT_EQ(stats.stale_misses, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, OlderEpochLookupKeepsNewerResident) {
  // A probe older than the resident plan is the stale one: a plain miss
  // that leaves the plan in place for current requests.
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q");
  cache.Insert(fp, 2, NamedPlan("current"), 1.0);
  EXPECT_EQ(cache.Lookup(fp, 1), nullptr);

  auto hit = cache.Lookup(fp, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan.output_table, "current");
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.stale_misses, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, EvictBelowEpoch) {
  PlanCache cache(SingleShard(8));
  cache.Insert(Fp(1, "a"), 1, NamedPlan("a"), 1.0);
  cache.Insert(Fp(2, "b"), 1, NamedPlan("b"), 1.0);
  cache.Insert(Fp(3, "c"), 2, NamedPlan("c"), 1.0);

  cache.EvictBelowEpoch(2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.Lookup(Fp(1, "a"), 2), nullptr);
  EXPECT_NE(cache.Lookup(Fp(3, "c"), 2), nullptr);
}

TEST(PlanCacheTest, InsertBelowEvictedEpochKeepsTheLivePlan) {
  // A search that began before an EvictBelowEpoch finishes after it, when
  // no entry is resident for its key: its dead-epoch plan must not take the
  // LRU slot of a live plan.
  PlanCache cache(SingleShard(1));
  QueryFingerprint live = Fp(1, "live"), late = Fp(1, "late");
  cache.EvictBelowEpoch(2);
  cache.Insert(live, 2, NamedPlan("live"), 1.0);
  auto served = cache.Insert(late, 1, NamedPlan("late"), 1.0);
  // The late request still serves the plan it found, uncached.
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->plan.output_table, "late");

  auto hit = cache.Lookup(live, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan.output_table, "live");
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.admission_rejects, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  // A probe below the floor is a plain miss.
  EXPECT_EQ(cache.Lookup(late, 1), nullptr);
  EXPECT_EQ(cache.stats().stale_misses, 0u);
}

TEST(PlanCacheTest, EntriesSpreadAcrossShards) {
  PlanCache::Options options;
  options.num_shards = 4;
  options.capacity_per_shard = 1;
  PlanCache cache(options);
  // Hashes 0..3 land in distinct shards, so all four fit despite the
  // per-shard capacity of one.
  for (uint64_t h = 0; h < 4; ++h) {
    cache.Insert(Fp(h, StrCat("q", h)), 1, NamedPlan(StrCat("p", h)), 1.0);
  }
  EXPECT_EQ(cache.size(), 4u);
  for (uint64_t h = 0; h < 4; ++h) {
    EXPECT_NE(cache.Lookup(Fp(h, StrCat("q", h)), 1), nullptr) << h;
  }
}

TEST(PlanCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  PlanCache::Options options;
  options.num_shards = 3;  // rounds to 4
  options.capacity_per_shard = 1;
  PlanCache cache(options);
  for (uint64_t h = 0; h < 4; ++h) {
    cache.Insert(Fp(h, StrCat("q", h)), 1, NamedPlan("p"), 1.0);
  }
  EXPECT_EQ(cache.size(), 4u);
}

TEST(PlanCacheTest, SharedPlanSurvivesEviction) {
  PlanCache cache(SingleShard(1));
  QueryFingerprint fp = Fp(1, "q");
  auto held = cache.Insert(fp, 1, NamedPlan("survivor"), 1.0);
  cache.Insert(Fp(2, "other"), 1, NamedPlan("other"), 1.0);  // evicts q

  EXPECT_EQ(cache.Lookup(fp, 1), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->plan.output_table, "survivor")
      << "a handed-out plan must outlive its cache entry";
}

TEST(PlanCacheTest, HashCollisionDistinctKeysDontAlias) {
  PlanCache cache(SingleShard(4));
  // Same 64-bit hash, different canonical keys: must be distinct entries.
  QueryFingerprint a = Fp(7, "key_a"), b = Fp(7, "key_b");
  cache.Insert(a, 1, NamedPlan("a"), 1.0);
  cache.Insert(b, 1, NamedPlan("b"), 1.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(a, 1)->plan.output_table, "a");
  EXPECT_EQ(cache.Lookup(b, 1)->plan.output_table, "b");
}

// --- single flight ---------------------------------------------------------

using Kind = PlanCache::Ticket::Kind;
using Outcome = PlanCache::Outcome;

TEST(PlanCacheFlightTest, LeaderPublishesToFollowersThenLaterRequestsHit) {
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q");
  PlanCache::Ticket leader = cache.Acquire(fp, 1);
  ASSERT_EQ(leader.kind, Kind::kLead);
  PlanCache::Ticket follower = cache.Acquire(fp, 1);
  ASSERT_EQ(follower.kind, Kind::kFollow);
  EXPECT_EQ(follower.flight, leader.flight);
  EXPECT_EQ(cache.waiting(), 1u);

  auto plan = cache.Insert(fp, 1, NamedPlan("p"), 1.0);
  cache.PublishPlan(leader.flight, plan);
  PlanCache::WaitResult wait = cache.Wait(follower.flight, nullptr);
  EXPECT_EQ(wait.outcome, Outcome::kPlan);
  EXPECT_EQ(wait.plan, plan);
  EXPECT_EQ(cache.waiting(), 0u);

  PlanCache::Ticket later = cache.Acquire(fp, 1);
  EXPECT_EQ(later.kind, Kind::kHit);
  EXPECT_EQ(later.plan, plan);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(PlanCacheFlightTest, DefiniteStatusReachesFollowersAndCachesNothing) {
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q");
  PlanCache::Ticket leader = cache.Acquire(fp, 1);
  PlanCache::Ticket follower = cache.Acquire(fp, 1);
  ASSERT_EQ(follower.kind, Kind::kFollow);
  cache.PublishStatus(leader.flight, NotFoundError("no plan"));

  PlanCache::WaitResult wait = cache.Wait(follower.flight, nullptr);
  EXPECT_EQ(wait.outcome, Outcome::kStatus);
  EXPECT_EQ(wait.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(wait.plan, nullptr);
  // The flight dissolved; the next request leads a fresh one.
  EXPECT_EQ(cache.Acquire(fp, 1).kind, Kind::kLead);
}

TEST(PlanCacheFlightTest, DetachThenAbandonPromotesTheRemainingFollower) {
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q");
  PlanCache::Ticket leader = cache.Acquire(fp, 1);
  PlanCache::Ticket stays = cache.Acquire(fp, 1);
  PlanCache::Ticket leaves = cache.Acquire(fp, 1);
  EXPECT_EQ(cache.waiting(), 2u);

  // A follower's own cancel detaches only that follower.
  EXPECT_EQ(cache.Wait(leaves.flight, [] { return true; }).outcome,
            Outcome::kDetached);
  EXPECT_EQ(cache.waiting(), 1u);

  // The leader steps down; the remaining follower takes the flight over.
  cache.Abandon(leader.flight);
  EXPECT_EQ(cache.Wait(stays.flight, nullptr).outcome, Outcome::kPromoted);
  EXPECT_EQ(cache.waiting(), 0u);
  // A later request still joins the promoted follower's flight.
  PlanCache::Ticket joins = cache.Acquire(fp, 1);
  EXPECT_EQ(joins.kind, Kind::kFollow);
  EXPECT_EQ(joins.flight, stays.flight);
  EXPECT_EQ(cache.Wait(joins.flight, [] { return true; }).outcome,
            Outcome::kDetached);

  // With no follower left to promote, abandoning dissolves the flight.
  cache.Abandon(stays.flight);
  PlanCache::Ticket next = cache.Acquire(fp, 1);
  EXPECT_EQ(next.kind, Kind::kLead);
  EXPECT_NE(next.flight, stays.flight);
}

TEST(PlanCacheFlightTest, EvictBelowEpochInvalidatesOlderFlightsOnly) {
  PlanCache cache(SingleShard(4));
  QueryFingerprint old_key = Fp(1, "old"), new_key = Fp(2, "new");
  PlanCache::Ticket old_leader = cache.Acquire(old_key, 1);
  PlanCache::Ticket old_follower = cache.Acquire(old_key, 1);
  PlanCache::Ticket new_leader = cache.Acquire(new_key, 2);
  PlanCache::Ticket new_follower = cache.Acquire(new_key, 2);
  cache.Insert(old_key, 1, NamedPlan("old"), 1.0);

  cache.EvictBelowEpoch(2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Wait(old_follower.flight, nullptr).outcome,
            Outcome::kInvalidated);
  EXPECT_EQ(cache.waiting(), 1u) << "the epoch-2 follower stays parked";
  // The invalidated leader's late publish reaches no one.
  cache.PublishPlan(old_leader.flight,
                    cache.Insert(old_key, 1, NamedPlan("late"), 1.0));
  EXPECT_EQ(cache.Acquire(old_key, 2).kind, Kind::kLead);

  auto plan = cache.Insert(new_key, 2, NamedPlan("new"), 1.0);
  cache.PublishPlan(new_leader.flight, plan);
  PlanCache::WaitResult wait = cache.Wait(new_follower.flight, nullptr);
  EXPECT_EQ(wait.outcome, Outcome::kPlan);
  EXPECT_EQ(wait.plan, plan);
}

TEST(PlanCacheFlightTest, NewerAcquireReplacesAnOlderFlight) {
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q");
  PlanCache::Ticket old_leader = cache.Acquire(fp, 1);
  PlanCache::Ticket old_follower = cache.Acquire(fp, 1);
  PlanCache::Ticket fresh = cache.Acquire(fp, 2);
  ASSERT_EQ(fresh.kind, Kind::kLead);
  EXPECT_NE(fresh.flight, old_leader.flight);
  EXPECT_EQ(cache.Wait(old_follower.flight, nullptr).outcome,
            Outcome::kInvalidated);
  EXPECT_EQ(cache.Acquire(fp, 2).flight, fresh.flight);
}

TEST(PlanCacheFlightTest, OlderAcquireLeavesANewerFlightAndPlan) {
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q");
  PlanCache::Ticket leader = cache.Acquire(fp, 2);
  PlanCache::Ticket follower = cache.Acquire(fp, 2);
  ASSERT_EQ(follower.kind, Kind::kFollow);

  // An epoch-1 probe neither joins nor invalidates the epoch-2 flight.
  PlanCache::Ticket older = cache.Acquire(fp, 1);
  EXPECT_EQ(older.kind, Kind::kBehind);
  EXPECT_EQ(older.flight, nullptr);
  EXPECT_EQ(cache.waiting(), 1u) << "the epoch-2 follower stays parked";

  auto plan = cache.Insert(fp, 2, NamedPlan("current"), 1.0);
  cache.PublishPlan(leader.flight, plan);
  PlanCache::WaitResult wait = cache.Wait(follower.flight, nullptr);
  EXPECT_EQ(wait.outcome, Outcome::kPlan);
  EXPECT_EQ(wait.plan, plan);

  // Nor does it touch the resident epoch-2 plan.
  EXPECT_EQ(cache.Acquire(fp, 1).kind, Kind::kBehind);
  EXPECT_EQ(cache.Acquire(fp, 2).plan, plan);
  EXPECT_EQ(cache.stats().stale_misses, 0u);
}

TEST(PlanCacheFlightTest, AcquireBelowTheFloorIsBehind) {
  // After EvictBelowEpoch(2) an epoch-1 Acquire neither leads a new flight
  // for the dead epoch nor joins the live one.
  PlanCache cache(SingleShard(4));
  QueryFingerprint fp = Fp(1, "q"), empty = Fp(2, "empty");
  cache.EvictBelowEpoch(2);
  PlanCache::Ticket dead = cache.Acquire(empty, 1);
  EXPECT_EQ(dead.kind, Kind::kBehind);
  EXPECT_EQ(dead.flight, nullptr);
  EXPECT_EQ(cache.Acquire(empty, 2).kind, Kind::kLead)
      << "the dead probe left no flight behind";

  PlanCache::Ticket leader = cache.Acquire(fp, 2);
  ASSERT_EQ(leader.kind, Kind::kLead);
  PlanCache::Ticket older = cache.Acquire(fp, 1);
  EXPECT_EQ(older.kind, Kind::kBehind);
  EXPECT_EQ(older.flight, nullptr);
  EXPECT_EQ(cache.waiting(), 0u);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 4u);
}

TEST(PlanCacheFlightTest, ConcurrentAcquiresAndEvictionKeepOneLeaderPerEpoch) {
  // Requests park on an epoch-1 flight; then an epoch bump and the leader's
  // publish race. Either the followers get the epoch-1 plan, or they wake
  // invalidated and retry under epoch 2, where one of them leads.
  constexpr int kRequests = 8;
  PlanCache::Options options;
  options.num_shards = 4;
  PlanCache cache(options);
  const QueryFingerprint fp = Fp(3, "q");
  std::atomic<uint64_t> epoch{1};
  std::atomic<uint64_t> acquires{0};
  std::atomic<int> leaders[3];
  std::atomic<int> wrong{0};

  PlanCache::Ticket first = cache.Acquire(fp, 1);
  acquires.fetch_add(1);
  ASSERT_EQ(first.kind, Kind::kLead);
  leaders[1].fetch_add(1);

  auto request = [&] {
    for (;;) {
      const uint64_t e = epoch.load();
      PlanCache::Ticket ticket = cache.Acquire(fp, e);
      acquires.fetch_add(1);
      switch (ticket.kind) {
        case Kind::kHit:
          if (ticket.plan->epoch != e) wrong.fetch_add(1);
          return;
        case Kind::kLead:
          leaders[e].fetch_add(1);
          cache.PublishPlan(ticket.flight,
                            cache.Insert(fp, e, NamedPlan("p"), 1.0));
          return;
        case Kind::kBehind:
          continue;
        case Kind::kFollow: {
          PlanCache::WaitResult wait = cache.Wait(ticket.flight, nullptr);
          if (wait.outcome == Outcome::kInvalidated) continue;
          if (wait.outcome != Outcome::kPlan || wait.plan->epoch != e) {
            wrong.fetch_add(1);
          }
          return;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kRequests; ++i) threads.emplace_back(request);
  while (cache.waiting() < static_cast<size_t>(kRequests)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread bumper([&] {
    epoch.store(2);
    cache.EvictBelowEpoch(2);
  });
  cache.PublishPlan(first.flight, cache.Insert(fp, 1, NamedPlan("p"), 1.0));
  bumper.join();
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(leaders[1].load(), 1);
  EXPECT_LE(leaders[2].load(), 1);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.waiting(), 0u);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, acquires.load());
}

}  // namespace
}  // namespace lcp
