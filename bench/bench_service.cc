// Experiment E12: the concurrent query service layer. Three questions:
//
//   BM_ServicePlanCold     — per-request cost when every request skips the
//                            plan cache: each pays a full proof search.
//   BM_ServicePlanWarm     — the same requests against a warm cache: one
//                            fingerprint + one sharded probe. The cold/warm
//                            ratio is the amortization headline
//                            (bench/run_benches.sh reports it; target >=10x).
//   BM_ServiceThroughput   — end-to-end plan+execute requests drained by
//                            1 / 2 / 4 workers (warm cache, per-worker
//                            sources): thread scaling of the serving path.
//   BM_ServiceOverload     — a burst at 4x the service's capacity against a
//                            bounded queue (kRejectNew): goodput and shed
//                            rate under overload, plus the p50/p99 latency
//                            of a *rejected* Submit — the fast-fail path
//                            must stay microseconds while workers grind.
//   BM_FailoverOutage      — goodput through a scheduled source outage on a
//                            virtual clock: quarantine, in-request failover
//                            to a pricier detour plan, failed probes during
//                            the outage, recovery after the heal. The
//                            headline is that goodput stays at 100% — only
//                            plan cost degrades, never availability.
//   BM_ServiceCoalescedBurst — a duplicate-heavy (zipf-flavoured) burst
//                            against a cache cold for this epoch, with
//                            single-flight coalescing off (arg 0) vs on
//                            (arg 1): the searches_per_burst counter is the
//                            headline — with coalescing it collapses to
//                            roughly one search per distinct query.
//   BM_ServiceSnapshotRestart — service construction plus first requests,
//                            cold (arg 0) vs warmed from a plan-cache
//                            snapshot (arg 1): the warm restart re-proves
//                            nothing (searches_per_restart == 0).
//
// Queries rotate through α-renamed variants, so the warm numbers include the
// canonicalizer, not just the hash probe.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/data/generator.h"
#include "lcp/runtime/faults.h"
#include "lcp/runtime/source.h"
#include "lcp/schema/parser.h"
#include "lcp/service/service.h"
#include "lcp/workload/scenarios.h"

namespace {

using namespace lcp;

struct ServiceWorkload {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<AccessibleSchema> accessible;
  std::unique_ptr<SimpleCostFunction> cost;
  std::unique_ptr<Instance> instance;
  /// α-renamed variants of the scenario query: identical cache entry,
  /// distinct texts through the canonicalizer.
  std::vector<ConjunctiveQuery> queries;

  ServiceWorkload() {
    auto scenario = MakeProfinfoScenario(false);
    schema = std::move(scenario->schema);
    queries.push_back(scenario->query);
    for (const char* text :
         {"Q(p) :- Profinfo(p, room, \"smith\")",
          "Q(who) :- Profinfo(who, office, \"smith\")",
          "Q(id) :- Profinfo(id, o, \"smith\")"}) {
      queries.push_back(ParseQuery(*schema, text).value());
    }
    accessible = std::make_unique<AccessibleSchema>(
        AccessibleSchema::Build(*schema, AccessibleVariant::kStandard)
            .value());
    cost = std::make_unique<SimpleCostFunction>(schema.get());
    GeneratorOptions gen;
    gen.seed = 7;
    // Big enough that one request's execution is real work (hundreds of
    // keyed probes): worker scaling should measure serving, not condvar
    // hand-off latency.
    gen.facts_per_relation = 512;
    gen.domain_size = 256;
    instance = std::make_unique<Instance>(
        GenerateInstance(*schema, gen).value());
  }

  QueryService::SourceFactory Factory() const {
    const Schema* s = schema.get();
    const Instance* inst = instance.get();
    return [s, inst] { return std::make_unique<SimulatedSource>(s, inst); };
  }
};

/// Plan-only workload for the cold/warm pair: the chain scenario's proof
/// search has to walk the referential chain, so a cold plan is real search
/// work (profinfo's search is nearly as cheap as the cache probe and would
/// understate the amortization).
struct PlanWorkload {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<AccessibleSchema> accessible;
  std::unique_ptr<SimpleCostFunction> cost;
  std::vector<ConjunctiveQuery> queries;

  explicit PlanWorkload(int chain_length = 4) {
    auto scenario = MakeChainScenario(chain_length);
    schema = std::move(scenario->schema);
    queries.push_back(scenario->query);
    for (const char* text : {"Q(x) :- R0(x, y)", "Q(head) :- R0(head, next)",
                             "Q(u) :- R0(u, v)"}) {
      queries.push_back(ParseQuery(*schema, text).value());
    }
    accessible = std::make_unique<AccessibleSchema>(
        AccessibleSchema::Build(*schema, AccessibleVariant::kStandard)
            .value());
    cost = std::make_unique<SimpleCostFunction>(schema.get());
  }
};

constexpr int kPlanBatch = 64;

/// Drives one iteration's worth of plan-only requests through the pipeline
/// (batch-submitted, so the condvar hand-off amortizes like in a loaded
/// server); returns false on any failure. `skip_cache` makes every request
/// re-plan.
bool DrainPlanBatch(QueryService& service,
                    const std::vector<ConjunctiveQuery>& queries,
                    size_t& which, bool skip_cache = false) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(kPlanBatch);
  for (int i = 0; i < kPlanBatch; ++i) {
    QueryRequest request;
    request.query = queries[which++ % queries.size()];
    request.execute = false;
    request.skip_cache = skip_cache;
    futures.push_back(service.Submit(std::move(request)).future);
  }
  for (auto& future : futures) {
    QueryResponse response = future.get();
    benchmark::DoNotOptimize(response);
    if (!response.status.ok()) return false;
  }
  return true;
}

void BM_ServicePlanCold(benchmark::State& state) {
  PlanWorkload w;
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(w.accessible.get(), w.cost.get(), nullptr, options);
  size_t which = 0;
  for (auto _ : state) {
    if (!DrainPlanBatch(service, w.queries, which, /*skip_cache=*/true)) {
      state.SkipWithError("planning failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kPlanBatch);
  state.counters["searches"] =
      static_cast<double>(service.SnapshotStats().searches);
}
BENCHMARK(BM_ServicePlanCold)->UseRealTime();

void BM_ServicePlanWarm(benchmark::State& state) {
  PlanWorkload w;
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(w.accessible.get(), w.cost.get(), nullptr, options);
  QueryRequest warmup;
  warmup.query = w.queries[0];
  warmup.execute = false;
  if (!service.Call(warmup).status.ok()) {
    state.SkipWithError("warmup planning failed");
    return;
  }
  size_t which = 0;
  for (auto _ : state) {
    if (!DrainPlanBatch(service, w.queries, which)) {
      state.SkipWithError("planning failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kPlanBatch);
  state.counters["hit_rate"] = service.SnapshotStats().CacheHitRate();
}
BENCHMARK(BM_ServicePlanWarm)->UseRealTime();

void BM_ServiceThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kBatch = 256;
  ServiceWorkload w;
  ServiceOptions options;
  options.num_workers = workers;
  QueryService service(w.accessible.get(), w.cost.get(), w.Factory(),
                       options);
  QueryRequest warmup;
  warmup.query = w.queries[0];
  if (!service.Call(warmup).status.ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  for (auto _ : state) {
    std::vector<std::future<QueryResponse>> futures;
    futures.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      QueryRequest request;
      request.query = w.queries[i % w.queries.size()];
      futures.push_back(service.Submit(std::move(request)).future);
    }
    for (auto& future : futures) {
      QueryResponse response = future.get();
      if (!response.status.ok()) state.SkipWithError("request failed");
      benchmark::DoNotOptimize(response);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["hit_rate"] = service.SnapshotStats().CacheHitRate();
}
BENCHMARK(BM_ServiceThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("workers")
    ->UseRealTime();

void BM_ServiceOverload(benchmark::State& state) {
  ServiceWorkload w;
  ServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 32;
  options.shed_policy = ShedPolicy::kRejectNew;
  QueryService service(w.accessible.get(), w.cost.get(), w.Factory(),
                       options);
  QueryRequest warmup;
  warmup.query = w.queries[0];
  if (!service.Call(warmup).status.ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  // 4x the service's standing capacity (workers + queue slots).
  const int burst = 4 * (options.num_workers +
                         static_cast<int>(options.max_queue_depth));
  uint64_t ok = 0;
  uint64_t rejected = 0;
  std::vector<double> reject_us;
  for (auto _ : state) {
    std::vector<std::future<QueryResponse>> futures;
    futures.reserve(burst);
    for (int i = 0; i < burst; ++i) {
      QueryRequest request;
      request.query = w.queries[static_cast<size_t>(i) % w.queries.size()];
      const auto before = std::chrono::steady_clock::now();
      SubmitHandle handle = service.Submit(std::move(request));
      const auto after = std::chrono::steady_clock::now();
      if (handle.ticket == 0) {
        ++rejected;
        reject_us.push_back(
            std::chrono::duration<double, std::micro>(after - before)
                .count());
      }
      futures.push_back(std::move(handle.future));
    }
    for (auto& future : futures) {
      QueryResponse response = future.get();
      if (response.status.ok()) ++ok;
      benchmark::DoNotOptimize(response);
    }
  }
  state.SetItemsProcessed(state.iterations() * burst);
  const double total =
      static_cast<double>(state.iterations()) * static_cast<double>(burst);
  state.counters["goodput"] = benchmark::Counter(
      static_cast<double>(ok), benchmark::Counter::kIsRate);
  state.counters["shed_rate"] =
      total == 0 ? 0.0 : static_cast<double>(rejected) / total;
  if (!reject_us.empty()) {
    std::sort(reject_us.begin(), reject_us.end());
    state.counters["reject_p50_us"] = reject_us[reject_us.size() / 2];
    state.counters["reject_p99_us"] =
        reject_us[reject_us.size() * 99 / 100];
  }
}
BENCHMARK(BM_ServiceOverload)->UseRealTime();

/// A worker source for the failover bench: SimulatedSource wrapped in a
/// FaultInjectingSource with a deterministic outage schedule on the shared
/// virtual clock.
class OutageSource : public AccessSource {
 public:
  OutageSource(const Schema* schema, const Instance* instance, Clock* clock,
               AccessMethodId victim, int64_t fail_at, int64_t recover_at)
      : base_(schema, instance),
        faulty_(&base_, FaultProfile{}, /*seed=*/1, clock) {
    faulty_.FailFrom(victim, fail_at);
    faulty_.RecoverAt(victim, recover_at);
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

void BM_FailoverOutage(benchmark::State& state) {
  // A relation with a cheap primary method and an expensive fallback: the
  // outage forces the service onto the detour, recovery brings it back.
  Schema schema;
  RelationId r = schema.AddRelation("R", 2).value();
  const AccessMethodId cheap =
      schema.AddAccessMethod("mt_r_cheap", r, {}, 1.0).value();
  schema.AddAccessMethod("mt_r_expensive", r, {}, 25.0).value();
  auto accessible =
      AccessibleSchema::Build(schema, AccessibleVariant::kStandard).value();
  SimpleCostFunction cost(&schema);
  Instance instance(&schema);
  for (int i = 0; i < 256; ++i) {
    instance.AddFact(r, Tuple{Value::Int(i), Value::Int(i % 17)});
  }
  ConjunctiveQuery query = ParseQuery(schema, "Q(x, y) :- R(x, y)").value();

  uint64_t ok = 0;
  uint64_t total = 0;
  ServiceStats last;
  for (auto _ : state) {
    // One full outage lifecycle per iteration: healthy -> outage (t=5ms) ->
    // quarantine + failover -> failed probe (window 20ms) -> heal (t=50ms)
    // -> successful probe -> primary plan restored.
    SharedVirtualClock clock;
    ServiceOptions options;
    options.num_workers = 2;
    options.clock = &clock;
    options.execution.retry.max_attempts = 1;
    options.health.quarantine_after_consecutive = 1;
    options.health.quarantine_micros = 20000;
    auto factory = [&schema, &instance, &clock, cheap] {
      return std::make_unique<OutageSource>(&schema, &instance, &clock, cheap,
                                            /*fail_at=*/5000,
                                            /*recover_at=*/50000);
    };
    QueryService service(&accessible, &cost, factory, options);
    constexpr int kPhaseBatch = 32;
    for (int64_t advance : {int64_t{0}, int64_t{10000}, int64_t{20000},
                            int64_t{30000}, int64_t{20000}}) {
      clock.Advance(advance);
      std::vector<std::future<QueryResponse>> futures;
      futures.reserve(kPhaseBatch);
      for (int i = 0; i < kPhaseBatch; ++i) {
        QueryRequest request;
        request.query = query;
        futures.push_back(service.Submit(std::move(request)).future);
      }
      for (auto& future : futures) {
        ++total;
        QueryResponse response = future.get();
        if (response.status.ok()) ++ok;
        benchmark::DoNotOptimize(response);
      }
    }
    service.Shutdown();
    last = service.SnapshotStats();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["goodput"] = benchmark::Counter(
      static_cast<double>(ok), benchmark::Counter::kIsRate);
  state.counters["ok_fraction"] =
      total == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(total);
  state.counters["degraded"] = static_cast<double>(last.degraded_responses);
  state.counters["failovers"] = static_cast<double>(last.failovers);
  state.counters["probes"] = static_cast<double>(last.probes_sent);
  state.counters["recoveries"] = static_cast<double>(last.recoveries);
}
BENCHMARK(BM_FailoverOutage)->UseRealTime();

/// Queries over *distinct* fingerprints (unlike ServiceWorkload::queries,
/// which are α-renamings of one key): the duplicate-heavy mixes below need
/// several real cache entries.
std::vector<ConjunctiveQuery> DistinctQueries(const ServiceWorkload& w) {
  std::vector<ConjunctiveQuery> queries = {w.queries[0]};
  for (const char* text :
       {"Q(e, l) :- Udirect(e, l)", "Q(l) :- Udirect(e, l)",
        "Q() :- Profinfo(eid, onum, lname)"}) {
    queries.push_back(ParseQuery(*w.schema, text).value());
  }
  return queries;
}

void BM_ServiceCoalescedBurst(benchmark::State& state) {
  const bool coalescing = state.range(0) != 0;
  // The 24-source scenario's proof search takes >10ms even with dominance
  // pruning — longer than both worker wake-up latency and a scheduler
  // timeslice, so concurrent duplicates genuinely overlap even on one core
  // (profinfo- or chain-style searches resolve faster than dispatch, so
  // nothing would ever coalesce). The α-renamed rotation is the zipf limit:
  // one hot key under maximal duplication, through the canonicalizer every
  // time.
  auto scenario = MakeMultiSourceScenario(24);
  std::unique_ptr<Schema> schema = std::move(scenario->schema);
  std::vector<ConjunctiveQuery> queries = {scenario->query};
  for (const char* text : {"Q() :- Profinfo(a, b, c)",
                           "Q() :- Profinfo(id, office, name)"}) {
    queries.push_back(ParseQuery(*schema, text).value());
  }
  AccessibleSchema accessible =
      AccessibleSchema::Build(*schema, AccessibleVariant::kStandard).value();
  SimpleCostFunction cost(schema.get());
  ServiceOptions options;
  options.num_workers = 4;
  options.coalescing_enabled = coalescing;
  QueryService service(&accessible, &cost, nullptr, options);
  constexpr int kBurst = 128;
  uint64_t ok = 0;
  for (auto _ : state) {
    // Each burst starts epoch-cold: every request for the key either pays a
    // proof search or coalesces onto one that is already in flight.
    service.BumpEpoch();
    std::vector<std::future<QueryResponse>> futures;
    futures.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
      QueryRequest request;
      request.query = queries[static_cast<size_t>(i) % queries.size()];
      request.execute = false;
      futures.push_back(service.Submit(std::move(request)).future);
    }
    for (auto& future : futures) {
      QueryResponse response = future.get();
      if (response.status.ok()) ++ok;
      benchmark::DoNotOptimize(response);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
  const ServiceStats stats = service.SnapshotStats();
  const double iters = static_cast<double>(state.iterations());
  state.counters["searches_per_burst"] =
      iters == 0 ? 0.0 : static_cast<double>(stats.searches) / iters;
  state.counters["followers_per_burst"] =
      iters == 0 ? 0.0
                 : static_cast<double>(stats.coalesced_followers) / iters;
  state.counters["ok_fraction"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(ok) /
                (static_cast<double>(state.iterations()) * kBurst);
}
BENCHMARK(BM_ServiceCoalescedBurst)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("coalescing")
    ->UseRealTime();

void BM_ServiceSnapshotRestart(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  ServiceWorkload w;
  const std::vector<ConjunctiveQuery> queries = DistinctQueries(w);
  const std::string path = "lcp_bench_snapshot.bin";
  std::remove(path.c_str());
  if (warm) {
    // Seed the snapshot once: serve every distinct query, then drain — the
    // shutdown snapshot persists the warmed cache.
    ServiceOptions options;
    options.num_workers = 2;
    options.snapshot_path = path;
    QueryService seeder(w.accessible.get(), w.cost.get(), w.Factory(),
                        options);
    for (const ConjunctiveQuery& query : queries) {
      QueryRequest request;
      request.query = query;
      request.execute = false;
      if (!seeder.Call(std::move(request)).status.ok()) {
        state.SkipWithError("seeding failed");
        return;
      }
    }
    seeder.Shutdown(ShutdownMode::kDrain);
  }
  uint64_t searches = 0;
  uint64_t loaded = 0;
  for (auto _ : state) {
    // One restart per iteration: construct (loading the snapshot, if any),
    // serve the whole distinct set, abort-shutdown (no snapshot rewrite).
    ServiceOptions options;
    options.num_workers = 2;
    options.snapshot_path = path;
    QueryService service(w.accessible.get(), w.cost.get(), w.Factory(),
                         options);
    for (const ConjunctiveQuery& query : queries) {
      QueryRequest request;
      request.query = query;
      request.execute = false;
      QueryResponse response = service.Call(std::move(request));
      if (!response.status.ok()) {
        state.SkipWithError("restart request failed");
        return;
      }
      benchmark::DoNotOptimize(response);
    }
    const ServiceStats stats = service.SnapshotStats();
    searches += stats.searches;
    loaded += stats.snapshot_entries_loaded;
    service.Shutdown(ShutdownMode::kAbort);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  const double iters = static_cast<double>(state.iterations());
  state.counters["searches_per_restart"] =
      iters == 0 ? 0.0 : static_cast<double>(searches) / iters;
  state.counters["entries_loaded_per_restart"] =
      iters == 0 ? 0.0 : static_cast<double>(loaded) / iters;
}
BENCHMARK(BM_ServiceSnapshotRestart)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("warm")
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
