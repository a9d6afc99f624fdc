#include "lcp/service/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

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

}  // namespace
}  // namespace lcp
