// Deterministic chaos harness for the QueryService request lifecycle.
//
// Each iteration derives a full scenario from one seed: pool size, admission
// bounds and shed policy, fault profile (transient failures, simulated
// latency, truncation, permanent outages), workload mix (queries, deadlines,
// plan-only and skip-cache requests), and a driver schedule of overload
// bursts, random cancellations, epoch bumps, and virtual-clock advances,
// finished by a randomly chosen drain or abort shutdown. Simulated time runs
// on a SharedVirtualClock, so fault latency and backoff waits are instant in
// real time but visible to deadlines.
//
// The invariants checked are scheduling-independent:
//   * every submitted future resolves exactly once with a definite status
//     (in particular, never the kInternal dropped-promise backstop);
//   * submitted == completed + rejected + shed + cancelled;
//   * Shutdown() returning implies nothing is left unresolved (no deadlock,
//     no worker still holding a job).
//
// LCP_CHAOS_ITERS scales the number of seeds (default 25; CI's nightly
// sanitizer jobs run 200). LCP_CHAOS_SEED offsets the seed base so distinct
// nightly runs explore distinct schedules.

#include "lcp/service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/data/generator.h"
#include "lcp/runtime/faults.h"
#include "lcp/runtime/source.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

/// One entry of a deterministic outage schedule: `method` goes dark at
/// `fail_at` on the virtual clock and (when `recover_at` >= 0) heals at
/// `recover_at`. Applied to every source a factory builds, so all workers
/// observe the same world.
struct OutageEvent {
  AccessMethodId method = kInvalidAccessMethod;
  int64_t fail_at = 0;
  int64_t recover_at = -1;
};

/// Owns a SimulatedSource plus the fault wrapper around it, so a worker's
/// source can be handed out as one object from the factory.
class ChaosSource : public AccessSource {
 public:
  ChaosSource(const Schema* schema, const Instance* instance,
              FaultProfile profile, uint64_t seed, Clock* clock,
              const std::vector<OutageEvent>& outages = {})
      : base_(schema, instance),
        faulty_(&base_, std::move(profile), seed, clock) {
    for (const OutageEvent& outage : outages) {
      faulty_.FailFrom(outage.method, outage.fail_at);
      if (outage.recover_at >= 0) {
        faulty_.RecoverAt(outage.method, outage.recover_at);
      }
    }
  }

  Result<AccessOutcome> TryAccess(AccessMethodId method,
                                  const Tuple& inputs) override {
    return faulty_.TryAccess(method, inputs);
  }
  const Schema& schema() const override { return faulty_.schema(); }

 private:
  SimulatedSource base_;
  FaultInjectingSource faulty_;
};

/// Shared read-only world: schema, accessible schema, cost function,
/// instance, and the query mix. Built once; every iteration's service reads
/// from it concurrently but never mutates it.
struct ChaosWorld {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<AccessibleSchema> accessible;
  std::unique_ptr<SimpleCostFunction> cost;
  std::unique_ptr<Instance> instance;
  std::vector<ConjunctiveQuery> queries;
};

ChaosWorld MakeWorld() {
  auto scenario = MakeProfinfoScenario(false);
  EXPECT_TRUE(scenario.ok()) << scenario.status();
  ChaosWorld world;
  world.schema = std::move(scenario->schema);
  world.queries.push_back(std::move(scenario->query));
  auto accessible =
      AccessibleSchema::Build(*world.schema, AccessibleVariant::kStandard);
  EXPECT_TRUE(accessible.ok()) << accessible.status();
  world.accessible =
      std::make_unique<AccessibleSchema>(std::move(accessible).value());
  world.cost = std::make_unique<SimpleCostFunction>(world.schema.get());
  GeneratorOptions gen;
  gen.seed = 7;
  gen.facts_per_relation = 12;
  gen.domain_size = 15;
  auto instance = GenerateInstance(*world.schema, gen);
  EXPECT_TRUE(instance.ok()) << instance.status();
  world.instance = std::make_unique<Instance>(std::move(instance).value());
  for (const char* text :
       {"Q(p) :- Profinfo(p, r, \"smith\")", "Q(e, l) :- Udirect(e, l)",
        "Q(l) :- Udirect(e, l)", "Q() :- Profinfo(eid, onum, lname)"}) {
    auto query = ParseQuery(*world.schema, text);
    EXPECT_TRUE(query.ok()) << text << ": " << query.status();
    if (query.ok()) world.queries.push_back(std::move(query).value());
  }
  return world;
}

/// One seeded scenario end to end. Returns the number of requests submitted,
/// so the caller can report coverage.
size_t RunScenario(const ChaosWorld& world, uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](int bound) {
    return static_cast<int>(rng() % static_cast<uint64_t>(bound));
  };
  auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };

  SharedVirtualClock clock;

  // --- scenario shape, all derived from the seed --------------------------
  FaultProfile profile;
  profile.defaults.transient_failure_rate = 0.2 * pick(3);  // 0, .2, .4
  if (pick(2) == 0) {
    profile.defaults.latency_base_micros = 50 + pick(200);
    profile.defaults.latency_jitter_micros = pick(100);
  }
  profile.defaults.truncation_rate = pick(4) == 0 ? 0.15 : 0.0;
  if (pick(4) == 0) {
    // A hard outage of one method: plans touching it keep failing after
    // retries; circuit breakers (when enabled below) short-circuit it.
    profile.permanent_outages.insert(static_cast<AccessMethodId>(
        pick(static_cast<int>(world.schema->num_access_methods()))));
  }
  // A mid-run scheduled outage (sometimes healing later) exercises the
  // health registry's quarantine -> failover -> probe -> recovery cycle
  // under the full chaos mix.
  std::vector<OutageEvent> outages;
  if (pick(3) == 0) {
    OutageEvent outage;
    outage.method = static_cast<AccessMethodId>(
        pick(static_cast<int>(world.schema->num_access_methods())));
    outage.fail_at = pick(40000);
    if (pick(2) == 0) outage.recover_at = outage.fail_at + 5000 + pick(60000);
    outages.push_back(outage);
  }

  ServiceOptions options;
  options.num_workers = 1 + pick(4);
  options.max_queue_depth = static_cast<size_t>(
      pick(3) == 0 ? 0 : 2 + pick(7));  // unbounded / 2..8
  options.shed_policy =
      pick(2) == 0 ? ShedPolicy::kRejectNew : ShedPolicy::kDropOldest;
  options.cache.num_shards = 1 + pick(4);
  // Once the cache on/off draw; kept so every seed replays the same
  // scenario.
  (void)pick(8);
  options.clock = &clock;
  options.execution.retry.max_attempts = 1 + pick(3);
  options.execution.retry.breaker_threshold = pick(2) == 0 ? 0 : 3;
  options.execution.retry.best_effort = pick(2) == 0;
  options.execution.retry.jitter_fraction = 0.5;
  options.execution.retry.jitter_seed = rng();
  if (pick(3) == 0) options.planning_budget_micros = 1000 + pick(50000);
  // Once the failover on/off draw; kept so every seed replays the same
  // scenario.
  (void)pick(4);
  options.health.quarantine_after_consecutive = 1 + pick(3);
  options.health.quarantine_micros = 1000 + pick(30000);

  const Schema* schema = world.schema.get();
  const Instance* instance = world.instance.get();
  std::atomic<uint64_t> source_seed{seed * 977u + 1};
  auto factory = [schema, instance, profile, outages, &source_seed, &clock] {
    return std::make_unique<ChaosSource>(
        schema, instance, profile,
        source_seed.fetch_add(1, std::memory_order_relaxed), &clock, outages);
  };

  QueryService service(world.accessible.get(), world.cost.get(), factory,
                       options);

  // --- driver: bursts, cancels, bumps, clock advances ---------------------
  std::vector<SubmitHandle> handles;
  const int bursts = 3 + pick(4);
  for (int burst = 0; burst < bursts; ++burst) {
    const int size = 1 + pick(12);
    for (int i = 0; i < size; ++i) {
      QueryRequest request;
      request.query = world.queries[static_cast<size_t>(pick(
          static_cast<int>(world.queries.size())))];
      request.execute = unit() < 0.7;
      request.skip_cache = unit() < 0.15;
      if (unit() < 0.5) request.deadline_micros = 500 + pick(50000);
      handles.push_back(service.Submit(std::move(request)));
    }
    // Interleave chaos between bursts.
    const int actions = pick(4);
    for (int a = 0; a < actions; ++a) {
      switch (pick(4)) {
        case 0:
          clock.Advance(pick(20000));
          break;
        case 1:
          if (!handles.empty()) {
            service.Cancel(
                handles[static_cast<size_t>(pick(
                            static_cast<int>(handles.size())))]
                    .ticket);
          }
          break;
        case 2:
          service.BumpEpoch();
          break;
        default:
          (void)service.QueueDepth();
          (void)service.SnapshotStats();
          break;
      }
    }
    // A sliver of real time so workers make progress between bursts; the
    // invariants below never depend on how much they got.
    if (pick(2) == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  const bool abort = pick(3) == 0;
  service.Shutdown(abort ? ShutdownMode::kAbort : ShutdownMode::kDrain);

  // A post-shutdown submit must fast-fail and still be accounted for.
  QueryRequest late;
  late.query = world.queries[0];
  late.execute = false;
  handles.push_back(service.Submit(std::move(late)));

  // --- invariants ---------------------------------------------------------
  for (SubmitHandle& handle : handles) {
    if (handle.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "seed " << seed
                    << ": a future is unresolved after Shutdown";
      continue;  // .get() would block forever; skip it
    }
    const QueryResponse response = handle.future.get();
    const StatusCode code = response.status.code();
    EXPECT_NE(code, StatusCode::kInternal)
        << "seed " << seed
        << ": dropped-promise backstop fired: " << response.status;
    const bool definite =
        code == StatusCode::kOk || code == StatusCode::kNotFound ||
        code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kCancelled ||
        code == StatusCode::kResourceExhausted ||
        code == StatusCode::kUnavailable ||
        code == StatusCode::kFailedPrecondition;
    EXPECT_TRUE(definite) << "seed " << seed << ": unexpected terminal status "
                          << response.status;
  }

  const ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.submitted, handles.size()) << "seed " << seed;
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.shed + stats.cancelled)
      << "seed " << seed << ": lifecycle conservation violated";
  if (options.max_queue_depth > 0) {
    EXPECT_LE(stats.queue_depth_high_water, options.max_queue_depth)
        << "seed " << seed << ": admission bound was not enforced";
  }
  // Health conservation: every probe resolves at most once, and degraded
  // responses are a subset of completions.
  EXPECT_LE(stats.probes_failed + stats.recoveries, stats.probes_sent)
      << "seed " << seed;
  EXPECT_LE(stats.degraded_responses, stats.completed) << "seed " << seed;
  return handles.size();
}

/// Coalescing-focused chaos: duplicate-heavy bursts race many identical
/// requests through the single-flight path while cancels and epoch bumps
/// try to break coalitions mid-flight. Faults (so no method is ever
/// quarantined and nothing fails over), deadlines, skip_cache, and admission
/// shedding are all disabled, so the proof-search count obeys a crisp
/// scheduling-independent bound:
///
///   searches <= distinct_keys * (1 + epoch_bumps) + cancels
///
/// Per (key, epoch band) at most one search completes — the plan cache's
/// atomic Acquire leaves no window between a miss and a join — and
/// each cancel can add at most one extra attempt (a cancelled leader's
/// aborted search, redone by the promoted follower). Seeds that happen to
/// schedule no cancels and no bumps therefore collapse to the strongest
/// form: searches <= distinct_keys.
size_t RunCoalescingScenario(const ChaosWorld& world, uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](int bound) {
    return static_cast<int>(rng() % static_cast<uint64_t>(bound));
  };
  auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };

  SharedVirtualClock clock;
  ServiceOptions options;
  options.num_workers = 2 + pick(7);
  options.max_queue_depth = 0;  // unbounded: no shedding noise in the bound
  options.cache.num_shards = 1 + pick(4);
  options.clock = &clock;

  const Schema* schema = world.schema.get();
  const Instance* instance = world.instance.get();
  std::atomic<uint64_t> source_seed{seed * 733u + 1};
  auto factory = [schema, instance, &source_seed, &clock] {
    return std::make_unique<ChaosSource>(
        schema, instance, FaultProfile{},
        source_seed.fetch_add(1, std::memory_order_relaxed), &clock);
  };
  QueryService service(world.accessible.get(), world.cost.get(), factory,
                       options);

  std::vector<SubmitHandle> handles;
  std::set<size_t> distinct;
  uint64_t bumps = 0;
  uint64_t cancels = 0;
  const int bursts = 3 + pick(4);
  for (int burst = 0; burst < bursts; ++burst) {
    const int size = 4 + pick(13);
    for (int i = 0; i < size; ++i) {
      QueryRequest request;
      // Zipf-flavoured duplicates: most of a burst lands on query 0, the
      // rest spread uniformly — exactly the mix coalescing exists for.
      const size_t which =
          unit() < 0.7 ? 0
                       : static_cast<size_t>(
                             pick(static_cast<int>(world.queries.size())));
      distinct.insert(which);
      request.query = world.queries[which];
      request.execute = unit() < 0.7;
      handles.push_back(service.Submit(std::move(request)));
    }
    const int actions = pick(4);
    for (int a = 0; a < actions; ++a) {
      switch (pick(3)) {
        case 0:
          if (!handles.empty() &&
              service.Cancel(handles[static_cast<size_t>(pick(
                                         static_cast<int>(handles.size())))]
                                 .ticket)) {
            ++cancels;
          }
          break;
        case 1:
          service.BumpEpoch();
          ++bumps;
          break;
        default:
          (void)service.SnapshotStats();
          break;
      }
    }
    if (pick(2) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  // Always drain: an abort cancels in-flight leaders outside the counted
  // cancel schedule, which would loosen the search bound.
  service.Shutdown(ShutdownMode::kDrain);

  for (SubmitHandle& handle : handles) {
    if (handle.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "seed " << seed
                    << ": a future is unresolved after Shutdown";
      continue;
    }
    const QueryResponse response = handle.future.get();
    const StatusCode code = response.status.code();
    EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kCancelled)
        << "seed " << seed << ": unexpected terminal status "
        << response.status;
  }

  const ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.submitted, handles.size()) << "seed " << seed;
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.shed + stats.cancelled)
      << "seed " << seed << ": lifecycle conservation violated";
  EXPECT_LE(stats.searches,
            static_cast<uint64_t>(distinct.size()) * (1 + bumps) + cancels)
      << "seed " << seed << ": coalescing failed to bound proof searches ("
      << distinct.size() << " distinct keys, " << bumps << " bumps, "
      << cancels << " cancels)";
  if (bumps == 0 && cancels == 0) {
    EXPECT_LE(stats.searches, static_cast<uint64_t>(distinct.size()))
        << "seed " << seed;
  }
  // Request-level accounting: every completed request was fed by exactly one
  // of the cache, its own search, or a coalition leader's search.
  EXPECT_LE(stats.coalesced_followers, stats.completed) << "seed " << seed;
  EXPECT_EQ(stats.coalesced_waiting, 0u)
      << "seed " << seed << ": followers still parked after Shutdown";
  return handles.size();
}

TEST(ServiceCoalescingChaosTest, DuplicateHeavyBurstsShareSearches) {
  const ChaosWorld world = MakeWorld();
  const int iters = EnvInt("LCP_CHAOS_ITERS", 25);
  const uint64_t base =
      static_cast<uint64_t>(EnvInt("LCP_CHAOS_SEED", 1)) + 0x5eed;
  size_t total = 0;
  for (int i = 0; i < iters; ++i) {
    total += RunCoalescingScenario(world, base + static_cast<uint64_t>(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(total, static_cast<size_t>(iters));
}

TEST(ServiceChaosTest, SeededLifecycleScenariosHoldInvariants) {
  const ChaosWorld world = MakeWorld();
  const int iters = EnvInt("LCP_CHAOS_ITERS", 25);
  const uint64_t base = static_cast<uint64_t>(EnvInt("LCP_CHAOS_SEED", 1));
  size_t total = 0;
  for (int i = 0; i < iters; ++i) {
    total += RunScenario(world, base + static_cast<uint64_t>(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Sanity: the harness exercised a non-trivial number of requests.
  EXPECT_GT(total, static_cast<size_t>(iters));
}

/// Deterministic end-to-end failover scenario (the PR's acceptance check):
/// a relation with a cheap and an expensive access method; the cheap one
/// suffers a scheduled permanent outage mid-run and heals later. With one
/// worker and sequential calls on a virtual clock, every transition is
/// exactly scripted:
///   * before the outage: cheap primary plan, not degraded;
///   * first request in the outage: one in-request failover re-plan, then
///     every subsequent request is OK + degraded (never kUnavailable);
///   * while the outage lasts: recovery probes fail and back off, service
///     keeps answering from the detour plan;
///   * after the heal: the next probe succeeds, the availability epoch
///     bumps, and the cheap primary plan wins its cache slot back.
TEST(ServiceFailoverTest, OutageFailoverAndRecoveryAreDeterministic) {
  Schema schema;
  RelationId r = schema.AddRelation("R", 2).value();
  const AccessMethodId cheap =
      schema.AddAccessMethod("mt_r_cheap", r, {}, 1.0).value();
  schema.AddAccessMethod("mt_r_expensive", r, {}, 25.0).value();
  auto accessible = AccessibleSchema::Build(schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();
  SimpleCostFunction cost(&schema);
  Instance instance(&schema);
  for (int i = 0; i < 4; ++i) {
    instance.AddFact(r, Tuple{Value::Int(i), Value::Int(i * 10)});
  }
  auto query = ParseQuery(schema, "Q(x, y) :- R(x, y)");
  ASSERT_TRUE(query.ok()) << query.status();

  SharedVirtualClock clock;
  ServiceOptions options;
  options.num_workers = 1;  // sequential Calls => a fully scripted schedule
  options.clock = &clock;
  options.execution.retry.max_attempts = 1;  // first failure is final
  options.health.quarantine_after_consecutive = 1;
  options.health.quarantine_micros = 50000;
  options.health.quarantine_backoff = 2.0;
  options.health.max_quarantine_micros = 100000;

  // The outage is scheduled at source-construction time, so there is no race
  // between the test thread and the worker's factory call.
  auto factory = [&schema, &instance, &clock, cheap] {
    std::vector<OutageEvent> outages;
    outages.push_back(OutageEvent{cheap, 10000, 200000});
    return std::make_unique<ChaosSource>(&schema, &instance, FaultProfile{},
                                         /*seed=*/1, &clock, outages);
  };
  QueryService service(&accessible.value(), &cost, factory, options);
  auto call = [&] {
    QueryRequest request;
    request.query = *query;
    return service.Call(std::move(request));
  };

  // Phase 1 (t=0): healthy world, cheap primary plan.
  QueryResponse r1 = call();
  ASSERT_TRUE(r1.status.ok()) << r1.status;
  EXPECT_FALSE(r1.degraded);
  EXPECT_FALSE(r1.failed_over);
  ASSERT_NE(r1.plan, nullptr);
  const double cheap_cost = r1.plan->cost;
  EXPECT_EQ(r1.execution.output.size(), 4u);

  // Phase 2 (t=10ms): the cheap method goes dark. The first request fails
  // over in-request: quarantine, one re-plan around the dead method, served
  // from the detour.
  clock.Advance(10000);
  QueryResponse r2 = call();
  ASSERT_TRUE(r2.status.ok()) << r2.status;
  EXPECT_TRUE(r2.failed_over);
  EXPECT_TRUE(r2.degraded);
  ASSERT_NE(r2.plan, nullptr);
  EXPECT_GT(r2.plan->cost, cheap_cost);
  EXPECT_EQ(r2.execution.output.size(), 4u);  // exact answer, pricier plan

  // Once the detour plan exists, no client ever sees kUnavailable again:
  // requests hit the detour entry in the cache.
  for (int i = 0; i < 3; ++i) {
    QueryResponse response = call();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_TRUE(response.degraded);
    EXPECT_FALSE(response.failed_over);
    EXPECT_TRUE(response.cache_hit);
  }

  // Phase 3 (t=60ms): the quarantine window expires; the next request sends
  // a recovery probe, which fails (the outage heals only at t=200ms) and
  // doubles the window. Service keeps serving degraded answers throughout.
  clock.Advance(50000);
  QueryResponse r3 = call();
  ASSERT_TRUE(r3.status.ok()) << r3.status;
  EXPECT_TRUE(r3.degraded);
  {
    ServiceStats stats = service.SnapshotStats();
    EXPECT_EQ(stats.probes_sent, 1u);
    EXPECT_EQ(stats.probes_failed, 1u);
    EXPECT_EQ(stats.recoveries, 0u);
    EXPECT_EQ(stats.methods_quarantined, 1u);
  }

  // Phase 4 (t=160ms): second probe, still down (window now at the 100ms
  // cap).
  clock.Advance(100000);
  QueryResponse r4 = call();
  ASSERT_TRUE(r4.status.ok()) << r4.status;
  EXPECT_TRUE(r4.degraded);

  // Phase 5 (t=260ms): the outage healed at t=200ms; the pending probe
  // succeeds, the method is re-admitted, the availability epoch bumps, and
  // the same request is already served by the cheap primary plan again.
  clock.Advance(100000);
  QueryResponse r5 = call();
  ASSERT_TRUE(r5.status.ok()) << r5.status;
  EXPECT_FALSE(r5.degraded);
  EXPECT_FALSE(r5.cache_hit);  // detour entry unreachable under the new epoch
  ASSERT_NE(r5.plan, nullptr);
  EXPECT_EQ(r5.plan->cost, cheap_cost);

  // And the recovered plan is cached for everyone after.
  QueryResponse r6 = call();
  ASSERT_TRUE(r6.status.ok()) << r6.status;
  EXPECT_TRUE(r6.cache_hit);
  EXPECT_FALSE(r6.degraded);

  service.Shutdown();
  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.degraded_responses, 6u);  // r2, three cache hits, r3, r4
  EXPECT_EQ(stats.probes_sent, 3u);
  EXPECT_EQ(stats.probes_failed, 2u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.quarantines, 3u);  // initial + two failed probes
  EXPECT_EQ(stats.methods_quarantined, 0u);
  EXPECT_EQ(stats.failed, 0u);  // no client-visible error in the whole run
  const MethodHealthSnapshot snapshot = service.health()->Snapshot(cheap);
  EXPECT_EQ(snapshot.state, MethodHealth::kHealthy);
}

}  // namespace
}  // namespace lcp
