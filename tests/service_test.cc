#include "lcp/service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/data/generator.h"
#include "lcp/data/query_eval.h"
#include "lcp/runtime/faults.h"
#include "lcp/runtime/source.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

/// Everything a QueryService needs for the profinfo scenario: schema,
/// accessible schema, cost function, a constraint-satisfying instance, and a
/// factory handing each worker its own SimulatedSource over that instance.
struct ServiceFixture {
  std::unique_ptr<Schema> schema;
  ConjunctiveQuery query;
  std::unique_ptr<AccessibleSchema> accessible;
  std::unique_ptr<SimpleCostFunction> cost;
  std::unique_ptr<Instance> instance;

  QueryService::SourceFactory Factory() const {
    const Schema* s = schema.get();
    const Instance* inst = instance.get();
    return [s, inst] { return std::make_unique<SimulatedSource>(s, inst); };
  }
};

ServiceFixture MakeProfinfoFixture(uint64_t seed = 42) {
  auto scenario = MakeProfinfoScenario(false);
  EXPECT_TRUE(scenario.ok()) << scenario.status();
  ServiceFixture fx;
  fx.schema = std::move(scenario->schema);
  fx.query = std::move(scenario->query);
  auto accessible =
      AccessibleSchema::Build(*fx.schema, AccessibleVariant::kStandard);
  EXPECT_TRUE(accessible.ok()) << accessible.status();
  fx.accessible =
      std::make_unique<AccessibleSchema>(std::move(accessible).value());
  fx.cost = std::make_unique<SimpleCostFunction>(fx.schema.get());
  GeneratorOptions gen;
  gen.seed = seed;
  gen.facts_per_relation = 12;
  gen.domain_size = 15;
  auto instance = GenerateInstance(*fx.schema, gen);
  EXPECT_TRUE(instance.ok()) << instance.status();
  fx.instance = std::make_unique<Instance>(std::move(instance).value());
  return fx;
}

std::set<Tuple> Rows(const QueryResponse& response) {
  return std::set<Tuple>(response.execution.output.rows().begin(),
                         response.execution.output.rows().end());
}

std::set<Tuple> Oracle(const ConjunctiveQuery& query,
                       const Instance& instance) {
  std::vector<Tuple> rows = EvaluateQuery(query, instance);
  return std::set<Tuple>(rows.begin(), rows.end());
}

TEST(ServiceTest, EndToEndMatchesOracle) {
  ServiceFixture fx = MakeProfinfoFixture();
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       ServiceOptions{});

  QueryRequest request;
  request.query = fx.query;
  QueryResponse response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status;
  ASSERT_TRUE(response.executed);
  ASSERT_NE(response.plan, nullptr);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.epoch, 1u);
  EXPECT_EQ(Rows(response), Oracle(fx.query, *fx.instance));
}

TEST(ServiceTest, RepeatAndRenamedQueriesHitTheCache) {
  ServiceFixture fx = MakeProfinfoFixture();
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       ServiceOptions{});

  QueryRequest request;
  request.query = fx.query;
  QueryResponse first = service.Call(request);
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_FALSE(first.cache_hit);

  QueryResponse second = service.Call(request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);

  // An α-renamed copy of the same query is the same cache entry.
  auto renamed =
      ParseQuery(*fx.schema, "Q(person) :- Profinfo(person, room, \"smith\")");
  ASSERT_TRUE(renamed.ok()) << renamed.status();
  QueryRequest renamed_request;
  renamed_request.query = *renamed;
  QueryResponse third = service.Call(renamed_request);
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(Rows(third), Oracle(fx.query, *fx.instance));

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.searches, 1u) << "one proof search amortized over 3 calls";
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_GT(stats.CacheHitRate(), 0.5);
}

TEST(ServiceTest, StringConstantsDoNotShareAnotherQuerysPlan) {
  // Q1(x) :- R0(x, "a\");R1(c:\"b") and Q2(x) :- R0(x, "a"), R1("b") are
  // different queries; once their cache keys collided and Q2 was answered
  // from Q1's plan (OK, 0 rows) although the oracle has one row.
  Schema schema;
  RelationId r0 = schema.AddRelation("R0", 2).value();
  RelationId r1 = schema.AddRelation("R1", 1).value();
  schema.AddAccessMethod("mt_r0", r0, {}, 1.0).value();
  schema.AddAccessMethod("mt_r1", r1, {}, 1.0).value();
  auto accessible = AccessibleSchema::Build(schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();
  SimpleCostFunction cost(&schema);
  Instance instance(&schema);
  instance.AddFact(r0, Tuple{Value::Int(1), Value::Str("a")});
  instance.AddFact(r1, Tuple{Value::Str("b")});
  QueryService service(
      &*accessible, &cost,
      [&] { return std::make_unique<SimulatedSource>(&schema, &instance); },
      ServiceOptions{});

  QueryRequest first;
  first.query.name = "Q1";
  first.query.free_variables = {"x"};
  first.query.atoms = {
      Atom(r0, {Term::Var("x"), Term::Const("a\");R1(c:\"b")})};
  QueryResponse first_response = service.Call(first);
  ASSERT_TRUE(first_response.status.ok()) << first_response.status;
  EXPECT_EQ(Rows(first_response), Oracle(first.query, instance));

  QueryRequest second;
  second.query.name = "Q2";
  second.query.free_variables = {"x"};
  second.query.atoms = {Atom(r0, {Term::Var("x"), Term::Const("a")}),
                        Atom(r1, {Term::Const("b")})};
  QueryResponse second_response = service.Call(second);
  ASSERT_TRUE(second_response.status.ok()) << second_response.status;
  EXPECT_FALSE(second_response.cache_hit);
  EXPECT_EQ(Rows(second_response), Oracle(second.query, instance));
  EXPECT_EQ(Rows(second_response).size(), 1u);
}

TEST(ServiceTest, BumpEpochInvalidatesCachedPlans) {
  ServiceFixture fx = MakeProfinfoFixture();
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       ServiceOptions{});
  QueryRequest request;
  request.query = fx.query;
  ASSERT_TRUE(service.Call(request).status.ok());
  ASSERT_TRUE(service.Call(request).cache_hit);

  EXPECT_EQ(service.BumpEpoch(), 2u);
  EXPECT_EQ(service.cache().size(), 0u) << "bump evicts eagerly";

  QueryResponse after = service.Call(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit) << "old-epoch plan must not be served";
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_TRUE(service.Call(request).cache_hit) << "re-cached at new epoch";
}

TEST(ServiceTest, RefreshSchemaOnlyBumpsOnRealChange) {
  ServiceFixture fx = MakeProfinfoFixture();
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       ServiceOptions{});
  const uint64_t fingerprint = service.schema_fingerprint();
  EXPECT_EQ(service.RefreshSchema(), 1u) << "unchanged schema: same epoch";
  EXPECT_EQ(service.schema_fingerprint(), fingerprint);

  // A real edit (new constant) advances the epoch exactly once.
  fx.schema->AddConstant(Value::Int(777));
  EXPECT_EQ(service.RefreshSchema(), 2u);
  EXPECT_NE(service.schema_fingerprint(), fingerprint);
  EXPECT_EQ(service.RefreshSchema(), 2u) << "idempotent until the next edit";
}

TEST(ServiceTest, PlanOnlyRequestsNeedNoSourceFactory) {
  ServiceFixture fx = MakeProfinfoFixture();
  QueryService service(fx.accessible.get(), fx.cost.get(), nullptr,
                       ServiceOptions{});
  QueryRequest request;
  request.query = fx.query;
  request.execute = false;
  QueryResponse response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status;
  ASSERT_NE(response.plan, nullptr);
  EXPECT_FALSE(response.executed);
  EXPECT_GT(response.plan->plan.NumAccessCommands(), 0);

  // But asking such a service to execute is a caller error.
  request.execute = true;
  EXPECT_EQ(service.Call(request).status.code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServiceTest, UnanswerableQueryReturnsNotFound) {
  // R(x) reachable only through an input-requiring method, and nothing
  // supplies the input: provably no plan.
  auto schema = std::make_unique<Schema>();
  RelationId r = *schema->AddRelation("R", 1);
  ASSERT_TRUE(schema->AddAccessMethod("m_r", r, {0}).ok());
  auto accessible =
      AccessibleSchema::Build(*schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  SimpleCostFunction cost(schema.get());
  QueryService service(&*accessible, &cost, nullptr, ServiceOptions{});

  QueryRequest request;
  auto query = ParseQuery(*schema, "Q(x) :- R(x)");
  ASSERT_TRUE(query.ok());
  request.query = *query;
  request.execute = false;
  QueryResponse response = service.Call(request);
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(response.plan, nullptr);
  EXPECT_EQ(service.SnapshotStats().failed, 1u);
}

TEST(ServiceTest, SkipCacheReplansButStillOffersTheResult) {
  ServiceFixture fx = MakeProfinfoFixture();
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       ServiceOptions{});
  QueryRequest skip;
  skip.query = fx.query;
  skip.skip_cache = true;
  EXPECT_FALSE(service.Call(skip).cache_hit);
  EXPECT_FALSE(service.Call(skip).cache_hit) << "skip_cache always re-plans";
  EXPECT_EQ(service.SnapshotStats().searches, 2u);

  QueryRequest normal;
  normal.query = fx.query;
  EXPECT_TRUE(service.Call(normal).cache_hit)
      << "skip_cache results are still offered to the cache";
}

TEST(ServiceTest, SubmitAfterShutdownFailsFast) {
  ServiceFixture fx = MakeProfinfoFixture();
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       ServiceOptions{});
  service.Shutdown();
  QueryRequest request;
  request.query = fx.query;
  EXPECT_EQ(service.Call(request).status.code(),
            StatusCode::kFailedPrecondition);
  service.Shutdown();  // idempotent
}

TEST(ServiceTest, ShutdownDrainsQueuedRequests) {
  ServiceFixture fx = MakeProfinfoFixture();
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       options);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    QueryRequest request;
    request.query = fx.query;
    futures.push_back(service.Submit(std::move(request)).future);
  }
  service.Shutdown();
  for (auto& future : futures) {
    QueryResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status;
  }
}

// --- request lifecycle: admission, deadlines, cancellation, shutdown -------

/// A manual gate: workers block in Pass() until Open(). Used to hold the
/// (single) worker inside an execution while a test arranges queue states,
/// advances a virtual clock, or cancels requests.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> arrivals{0};

  void Pass() {
    arrivals.fetch_add(1, std::memory_order_release);
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  /// Spins (real time) until some worker has reached the gate.
  void AwaitArrival() {
    while (arrivals.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

/// A SimulatedSource whose every access first waits at the gate.
class GatedSource : public AccessSource {
 public:
  GatedSource(const Schema* schema, const Instance* instance, Gate* gate)
      : base_(schema, instance), gate_(gate) {}
  Result<AccessOutcome> TryAccess(AccessMethodId method,
                                  const Tuple& inputs) override {
    gate_->Pass();
    return base_.TryAccess(method, inputs);
  }
  const Schema& schema() const override { return base_.schema(); }

 private:
  SimulatedSource base_;
  Gate* gate_;
};

QueryService::SourceFactory GatedFactory(const ServiceFixture& fx,
                                         Gate* gate) {
  const Schema* schema = fx.schema.get();
  const Instance* instance = fx.instance.get();
  return [schema, instance, gate] {
    return std::make_unique<GatedSource>(schema, instance, gate);
  };
}

/// The lifecycle conservation invariant (see ServiceStats).
void ExpectConservation(const ServiceStats& s) {
  EXPECT_EQ(s.submitted, s.completed + s.rejected + s.shed + s.cancelled);
}

bool Ready(const std::future<QueryResponse>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

TEST(ServiceLifecycleTest, RejectNewFastFailsWhenQueueFull) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;  // default policy: kRejectNew
  QueryService service(fx.accessible.get(), fx.cost.get(),
                       GatedFactory(fx, &gate), options);

  QueryRequest busy;
  busy.query = fx.query;  // execute = true: blocks at the gate
  SubmitHandle a = service.Submit(busy);
  gate.AwaitArrival();  // the worker is stuck mid-execution; queue is empty

  QueryRequest plan_only;
  plan_only.query = fx.query;
  plan_only.execute = false;
  SubmitHandle b = service.Submit(plan_only);
  SubmitHandle c = service.Submit(plan_only);
  EXPECT_NE(b.ticket, 0u);
  EXPECT_NE(c.ticket, 0u);
  EXPECT_EQ(service.QueueDepth(), 2u);

  SubmitHandle d = service.Submit(plan_only);
  EXPECT_EQ(d.ticket, 0u) << "rejected at the edge, never queued";
  ASSERT_TRUE(Ready(d.future)) << "fast-fail must not wait for a worker";
  EXPECT_EQ(d.future.get().status.code(), StatusCode::kResourceExhausted);

  gate.Open();
  service.Shutdown();  // drain: B and C still get served
  EXPECT_TRUE(a.future.get().status.ok());
  EXPECT_TRUE(b.future.get().status.ok());
  EXPECT_TRUE(c.future.get().status.ok());

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queue_depth_high_water, 2u);
  ExpectConservation(stats);
}

TEST(ServiceLifecycleTest, DropOldestEvictsTheOldestQueuedRequest) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  options.shed_policy = ShedPolicy::kDropOldest;
  QueryService service(fx.accessible.get(), fx.cost.get(),
                       GatedFactory(fx, &gate), options);

  QueryRequest busy;
  busy.query = fx.query;
  SubmitHandle a = service.Submit(busy);
  gate.AwaitArrival();

  QueryRequest plan_only;
  plan_only.query = fx.query;
  plan_only.execute = false;
  SubmitHandle b = service.Submit(plan_only);
  SubmitHandle c = service.Submit(plan_only);
  SubmitHandle d = service.Submit(plan_only);  // evicts B, admits D
  EXPECT_NE(d.ticket, 0u) << "drop-oldest admits the new request";
  EXPECT_EQ(service.QueueDepth(), 2u);

  ASSERT_TRUE(Ready(b.future)) << "the evicted request resolves immediately";
  EXPECT_EQ(b.future.get().status.code(), StatusCode::kResourceExhausted);

  gate.Open();
  service.Shutdown();
  EXPECT_TRUE(a.future.get().status.ok());
  EXPECT_TRUE(c.future.get().status.ok());
  EXPECT_TRUE(d.future.get().status.ok());

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.shed, 1u);
  ExpectConservation(stats);
}

TEST(ServiceLifecycleTest, DeadlineExpiredInQueueIsShedWithoutPlanning) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  SharedVirtualClock clock;
  ServiceOptions options;
  options.num_workers = 1;
  options.clock = &clock;
  QueryService service(fx.accessible.get(), fx.cost.get(),
                       GatedFactory(fx, &gate), options);

  QueryRequest busy;
  busy.query = fx.query;
  SubmitHandle a = service.Submit(busy);
  gate.AwaitArrival();
  ASSERT_EQ(service.SnapshotStats().searches, 1u);

  QueryRequest hurried;
  hurried.query = fx.query;
  hurried.execute = false;
  hurried.skip_cache = true;  // a search would be observable if one ran
  hurried.deadline_micros = 5'000;
  SubmitHandle b = service.Submit(hurried);

  clock.Advance(10'000);  // the deadline passes while B is still queued
  gate.Open();
  service.Shutdown();

  QueryResponse response = b.future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.queue_micros, 10'000);
  EXPECT_TRUE(a.future.get().status.ok());

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.searches, 1u)
      << "an expired request must be shed before proof search";
  EXPECT_EQ(stats.shed, 1u);
  ExpectConservation(stats);
}

TEST(ServiceLifecycleTest, QueueWaitShrinksThePlanningBudget) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  SharedVirtualClock clock;
  ServiceOptions options;
  options.num_workers = 1;
  options.clock = &clock;
  QueryService service(fx.accessible.get(), fx.cost.get(),
                       GatedFactory(fx, &gate), options);

  QueryRequest busy;
  busy.query = fx.query;
  SubmitHandle a = service.Submit(busy);
  gate.AwaitArrival();

  QueryRequest tight;
  tight.query = fx.query;
  tight.execute = false;
  tight.skip_cache = true;  // force a real search so a budget is granted
  tight.deadline_micros = 50'000;
  SubmitHandle b = service.Submit(tight);

  clock.Advance(40'000);  // 40ms of queue wait against a 50ms deadline
  gate.Open();
  service.Shutdown();

  QueryResponse response = b.future.get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.queue_micros, 40'000);
  EXPECT_EQ(response.planning_budget_micros, 10'000)
      << "only the time remaining after queue wait may be granted";
  EXPECT_TRUE(a.future.get().status.ok());
}

TEST(ServiceLifecycleTest, CancelQueuedRequestResolvesImmediately) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(fx.accessible.get(), fx.cost.get(),
                       GatedFactory(fx, &gate), options);

  QueryRequest busy;
  busy.query = fx.query;
  SubmitHandle a = service.Submit(busy);
  gate.AwaitArrival();

  QueryRequest queued;
  queued.query = fx.query;
  queued.execute = false;
  SubmitHandle b = service.Submit(queued);
  ASSERT_NE(b.ticket, 0u);

  EXPECT_TRUE(service.Cancel(b.ticket));
  ASSERT_TRUE(Ready(b.future)) << "a queued cancel must not wait for a worker";
  EXPECT_EQ(b.future.get().status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(service.Cancel(b.ticket)) << "already resolved";
  EXPECT_FALSE(service.Cancel(0));
  EXPECT_FALSE(service.Cancel(123456)) << "unknown ticket";

  gate.Open();
  service.Shutdown();
  EXPECT_TRUE(a.future.get().status.ok());

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.searches, 1u) << "the cancelled request never planned";
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
  ExpectConservation(stats);
}

TEST(ServiceLifecycleTest, CancelInFlightRequestAbortsExecution) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(fx.accessible.get(), fx.cost.get(),
                       GatedFactory(fx, &gate), options);

  QueryRequest busy;
  busy.query = fx.query;
  SubmitHandle a = service.Submit(busy);
  gate.AwaitArrival();  // A is mid-execution, blocked at the gate

  EXPECT_TRUE(service.Cancel(a.ticket)) << "in flight: trips the token";
  gate.Open();
  QueryResponse response = a.future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(response.executed);
  service.Shutdown();

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.completed, 1u)
      << "an in-flight cancel completes on the worker";
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.cancelled, 0u) << "`cancelled` counts queued cancels only";
  ExpectConservation(stats);
}

TEST(ServiceLifecycleTest, AbortShutdownFailsQueuedAndCancelsInFlight) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(fx.accessible.get(), fx.cost.get(),
                       GatedFactory(fx, &gate), options);

  QueryRequest busy;
  busy.query = fx.query;
  SubmitHandle a = service.Submit(busy);
  gate.AwaitArrival();

  QueryRequest queued;
  queued.query = fx.query;
  queued.execute = false;
  SubmitHandle b = service.Submit(queued);
  SubmitHandle c = service.Submit(queued);

  std::thread aborter([&] { service.Shutdown(ShutdownMode::kAbort); });
  // Queued requests are failed before the join, so these resolve even while
  // the in-flight request is still blocked at the gate.
  EXPECT_EQ(b.future.get().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(c.future.get().status.code(), StatusCode::kUnavailable);
  gate.Open();
  aborter.join();
  EXPECT_EQ(a.future.get().status.code(), StatusCode::kUnavailable)
      << "abort trips the in-flight token with kUnavailable";

  QueryRequest late;
  late.query = fx.query;
  late.execute = false;
  SubmitHandle d = service.Submit(late);
  EXPECT_EQ(d.ticket, 0u);
  EXPECT_EQ(d.future.get().status.code(), StatusCode::kFailedPrecondition);

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  ExpectConservation(stats);
}

TEST(ServiceLifecycleTest, ConcurrentShutdownJoinsExactlyOnce) {
  ServiceFixture fx = MakeProfinfoFixture();
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       options);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    QueryRequest request;
    request.query = fx.query;
    futures.push_back(service.Submit(std::move(request)).future);
  }
  // Two threads race Shutdown: historically this double-joined the worker
  // threads (undefined behavior). Exactly one may join; the other must block
  // until the join is done, so either returning implies a quiesced service.
  std::thread first([&] { service.Shutdown(); });
  std::thread second([&] { service.Shutdown(); });
  first.join();
  second.join();
  for (auto& future : futures) {
    ASSERT_TRUE(Ready(future)) << "shutdown returned with work unresolved";
    EXPECT_TRUE(future.get().status.ok());
  }
  ExpectConservation(service.SnapshotStats());
}

TEST(ServiceLifecycleTest, MalformedQueriesAreRejectedAtTheEdge) {
  ServiceFixture fx = MakeProfinfoFixture();
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       ServiceOptions{});

  auto expect_rejected = [&](ConjunctiveQuery query, const char* what) {
    QueryRequest request;
    request.query = std::move(query);
    SubmitHandle handle = service.Submit(std::move(request));
    EXPECT_EQ(handle.ticket, 0u) << what;
    ASSERT_TRUE(Ready(handle.future)) << what;
    EXPECT_EQ(handle.future.get().status.code(), StatusCode::kInvalidArgument)
        << what;
  };

  ConjunctiveQuery unknown = fx.query;
  unknown.atoms[0].relation = static_cast<RelationId>(9999);
  expect_rejected(std::move(unknown), "unknown relation");

  ConjunctiveQuery bad_arity = fx.query;
  bad_arity.atoms[0].terms.pop_back();
  expect_rejected(std::move(bad_arity), "arity mismatch");

  ConjunctiveQuery unsafe = fx.query;
  unsafe.free_variables.push_back("never_bound");
  expect_rejected(std::move(unsafe), "unsafe head variable");

  ConjunctiveQuery empty;
  expect_rejected(std::move(empty), "empty body");

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.searches, 0u)
      << "rejected requests never reach the planner";
  ExpectConservation(stats);
}

// --- concurrent stress: mixed queries + mid-run epoch bumps ----------------
//
// 8 client threads fire α-equivalent and distinct queries (some skip_cache)
// at an 8-worker service while a ninth thread repeatedly bumps the epoch.
// Every response must still be correct; counters must balance. Run under
// TSan in CI (see .github/workflows/ci.yml); LCP_SERVICE_STRESS_ITERS scales
// the per-thread iteration count.

int StressIters() {
  const char* env = std::getenv("LCP_SERVICE_STRESS_ITERS");
  if (env != nullptr) {
    int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 40;
}

TEST(ServiceStressTest, ConcurrentMixedQueriesWithEpochBumps) {
  ServiceFixture fx = MakeProfinfoFixture();
  ServiceOptions options;
  options.num_workers = 8;
  options.cache.num_shards = 4;
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       options);

  // Query mix over the same schema: the scenario query, two α-renamings of
  // it (same cache entry), a projection over the free-access relation, and
  // the boolean variant — each with its oracle answer.
  std::vector<ConjunctiveQuery> queries = {fx.query};
  for (const char* text :
       {"Q(p) :- Profinfo(p, r, \"smith\")",
        "Q(who) :- Profinfo(who, office, \"smith\")",
        "Q(e, l) :- Udirect(e, l)", "Q(l) :- Udirect(e, l)",
        "Q() :- Profinfo(eid, onum, lname)"}) {
    auto query = ParseQuery(*fx.schema, text);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status();
    queries.push_back(std::move(query).value());
  }
  std::vector<std::set<Tuple>> oracles;
  for (const ConjunctiveQuery& query : queries) {
    oracles.push_back(Oracle(query, *fx.instance));
  }

  const int iters = StressIters();
  constexpr int kClientThreads = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong_answers{0};

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < iters; ++i) {
        size_t which = static_cast<size_t>(t + i) % queries.size();
        QueryRequest request;
        request.query = queries[which];
        request.skip_cache = (t + i) % 7 == 0;
        QueryResponse response = service.Call(request);
        if (!response.status.ok() || Rows(response) != oracles[which]) {
          wrong_answers.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread bumper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      service.BumpEpoch();
      service.RefreshSchema();  // no schema edit: must be a no-op
      std::this_thread::yield();
    }
  });

  for (std::thread& client : clients) client.join();
  stop.store(true, std::memory_order_release);
  bumper.join();
  service.Shutdown();

  EXPECT_EQ(wrong_answers.load(), 0);
  ServiceStats stats = service.SnapshotStats();
  const uint64_t total =
      static_cast<uint64_t>(kClientThreads) * static_cast<uint64_t>(iters);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.cache_hits + stats.searches + stats.coalesced_followers,
            total)
      << "every request either hit the cache, ran a proof search, or was "
         "fed by a coalition leader's search";
  EXPECT_GE(stats.epoch_bumps, 1u);
  EXPECT_EQ(service.epoch(), stats.epoch_bumps + 1);
}

// --- single-flight coalescing ----------------------------------------------

/// A cost function whose every Cost() call first waits at the gate: holds a
/// worker *inside its proof search* (rather than inside execution, where
/// GatedSource blocks), so a test can pile identical requests onto a search
/// that is provably still in flight.
class GatedCostFunction : public CostFunction {
 public:
  GatedCostFunction(const Schema* schema, Gate* gate)
      : base_(schema), gate_(gate) {}
  double Cost(const Plan& plan) const override {
    gate_->Pass();
    return base_.Cost(plan);
  }

 private:
  SimpleCostFunction base_;
  Gate* gate_;
};

/// Spins (real time) until `predicate` holds. The surrounding ctest timeout
/// bounds a wedged spin.
template <typename Predicate>
void SpinUntil(Predicate predicate) {
  while (!predicate()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServiceCoalescingTest, ConcurrentIdenticalSubmitsShareOneSearch) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  GatedCostFunction cost(fx.schema.get(), &gate);
  ServiceOptions options;
  options.num_workers = 4;
  QueryService service(fx.accessible.get(), &cost, fx.Factory(), options);

  QueryRequest request;
  request.query = fx.query;
  // The first submit provably leads: it is inside its proof search (blocked
  // at the gate) before any other request exists.
  auto leader = service.Submit(QueryRequest(request));
  gate.AwaitArrival();
  std::vector<std::future<QueryResponse>> followers;
  for (int i = 0; i < 3; ++i) {
    followers.push_back(service.Submit(QueryRequest(request)).future);
  }
  // All three are parked on the leader's flight before the search finishes.
  SpinUntil([&] { return service.SnapshotStats().coalesced_waiting == 3; });
  gate.Open();

  std::set<Tuple> oracle = Oracle(fx.query, *fx.instance);
  QueryResponse led = leader.future.get();
  ASSERT_TRUE(led.status.ok()) << led.status;
  EXPECT_EQ(Rows(led), oracle);
  for (auto& future : followers) {
    QueryResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_FALSE(response.cache_hit);
    EXPECT_EQ(Rows(response), oracle);
  }

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.searches, 1u) << "one proof search fed all four requests";
  EXPECT_EQ(stats.coalesced_leaders, 1u);
  EXPECT_EQ(stats.coalesced_followers, 3u);
  EXPECT_EQ(stats.coalition_handoffs, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.coalesced_waiting, 0u);

  // The coalition's plan landed in the cache: the next request hits it.
  QueryResponse after = service.Call(QueryRequest(request));
  ASSERT_TRUE(after.status.ok());
  EXPECT_TRUE(after.cache_hit);
  service.Shutdown();
  ExpectConservation(service.SnapshotStats());
}

TEST(ServiceCoalescingTest, FollowerCancelDetachesOnlyThatFollower) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  GatedCostFunction cost(fx.schema.get(), &gate);
  ServiceOptions options;
  options.num_workers = 3;
  QueryService service(fx.accessible.get(), &cost, fx.Factory(), options);

  QueryRequest request;
  request.query = fx.query;
  auto leader = service.Submit(QueryRequest(request));
  gate.AwaitArrival();
  auto doomed = service.Submit(QueryRequest(request));
  auto survivor = service.Submit(QueryRequest(request));
  SpinUntil([&] { return service.SnapshotStats().coalesced_waiting == 2; });

  // Cancelling a parked follower detaches it without touching the search.
  EXPECT_TRUE(service.Cancel(doomed.ticket));
  QueryResponse detached = doomed.future.get();
  EXPECT_EQ(detached.status.code(), StatusCode::kCancelled);
  SpinUntil([&] { return service.SnapshotStats().coalesced_waiting == 1; });

  gate.Open();
  std::set<Tuple> oracle = Oracle(fx.query, *fx.instance);
  QueryResponse led = leader.future.get();
  ASSERT_TRUE(led.status.ok()) << led.status;
  EXPECT_EQ(Rows(led), oracle);
  QueryResponse served = survivor.future.get();
  ASSERT_TRUE(served.status.ok()) << served.status;
  EXPECT_EQ(Rows(served), oracle);

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_EQ(stats.coalesced_leaders, 1u);
  EXPECT_EQ(stats.coalesced_followers, 1u)
      << "only the surviving follower was fed by the leader's search";
  EXPECT_EQ(stats.coalition_handoffs, 0u);
  service.Shutdown();
  ExpectConservation(service.SnapshotStats());
}

TEST(ServiceCoalescingTest, LeaderCancelHandsTheSearchToAFollower) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  GatedCostFunction cost(fx.schema.get(), &gate);
  ServiceOptions options;
  options.num_workers = 3;
  QueryService service(fx.accessible.get(), &cost, fx.Factory(), options);

  QueryRequest request;
  request.query = fx.query;
  auto leader = service.Submit(QueryRequest(request));
  gate.AwaitArrival();
  std::vector<std::future<QueryResponse>> followers;
  followers.push_back(service.Submit(QueryRequest(request)).future);
  followers.push_back(service.Submit(QueryRequest(request)).future);
  SpinUntil([&] { return service.SnapshotStats().coalesced_waiting == 2; });

  // Cancel the leader *before* releasing the gate: when its search winds
  // down it must abandon the flight, and exactly one follower is promoted
  // to run the search itself (the gate is open by then).
  EXPECT_TRUE(service.Cancel(leader.ticket));
  gate.Open();

  QueryResponse led = leader.future.get();
  EXPECT_EQ(led.status.code(), StatusCode::kCancelled);
  std::set<Tuple> oracle = Oracle(fx.query, *fx.instance);
  for (auto& future : followers) {
    QueryResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(Rows(response), oracle);
  }

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.coalition_handoffs, 1u);
  EXPECT_EQ(stats.searches, 2u)
      << "the cancelled leader's aborted search plus the promotee's";
  EXPECT_EQ(stats.coalesced_leaders, 2u)
      << "the original leader and the promoted follower both led a search";
  EXPECT_EQ(stats.coalesced_followers, 1u);
  EXPECT_EQ(stats.cancelled + stats.completed, 3u);
  service.Shutdown();
  ExpectConservation(service.SnapshotStats());
}

TEST(ServiceCoalescingTest, EpochBumpInvalidatesTheCoalitionMidFlight) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  GatedCostFunction cost(fx.schema.get(), &gate);
  ServiceOptions options;
  options.num_workers = 3;
  QueryService service(fx.accessible.get(), &cost, fx.Factory(), options);

  QueryRequest request;
  request.query = fx.query;
  auto old_leader = service.Submit(QueryRequest(request));
  gate.AwaitArrival();
  std::vector<std::future<QueryResponse>> followers;
  followers.push_back(service.Submit(QueryRequest(request)).future);
  followers.push_back(service.Submit(QueryRequest(request)).future);
  SpinUntil([&] { return service.SnapshotStats().coalesced_waiting == 2; });

  // The bump invalidates the in-flight coalition: both followers wake,
  // re-resolve the epoch, and form a *new* coalition — one promotes itself
  // to lead a fresh search (and blocks at the still-closed gate), the other
  // parks on the new flight.
  service.BumpEpoch();
  SpinUntil([&] { return gate.arrivals.load(std::memory_order_acquire) >= 2; });
  SpinUntil([&] { return service.SnapshotStats().coalesced_waiting == 1; });
  gate.Open();

  std::set<Tuple> oracle = Oracle(fx.query, *fx.instance);
  QueryResponse led = old_leader.future.get();
  ASSERT_TRUE(led.status.ok()) << led.status;
  EXPECT_EQ(Rows(led), oracle) << "the old leader still serves its caller";
  for (auto& future : followers) {
    QueryResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(Rows(response), oracle);
  }

  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.searches, 2u)
      << "one search per epoch band: the old leader's and the new leader's";
  EXPECT_EQ(stats.coalesced_leaders, 2u);
  EXPECT_EQ(stats.coalesced_followers, 1u);
  EXPECT_EQ(stats.coalition_handoffs, 0u);
  EXPECT_EQ(stats.epoch_bumps, 1u);
  service.Shutdown();
  ExpectConservation(service.SnapshotStats());
}

TEST(ServiceCoalescingTest, DisabledCoalescingPlansEveryRequestSolo) {
  ServiceFixture fx = MakeProfinfoFixture();
  Gate gate;
  GatedCostFunction cost(fx.schema.get(), &gate);
  ServiceOptions options;
  options.num_workers = 3;
  options.coalescing_enabled = false;
  QueryService service(fx.accessible.get(), &cost, fx.Factory(), options);

  QueryRequest request;
  request.query = fx.query;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.Submit(QueryRequest(request)).future);
  }
  // All three run their own search: three workers reach the gate.
  SpinUntil([&] { return gate.arrivals.load(std::memory_order_acquire) >= 3; });
  gate.Open();

  std::set<Tuple> oracle = Oracle(fx.query, *fx.instance);
  for (auto& future : futures) {
    QueryResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(Rows(response), oracle);
  }
  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.searches, 3u);
  EXPECT_EQ(stats.coalesced_leaders, 0u);
  EXPECT_EQ(stats.coalesced_followers, 0u);
  service.Shutdown();
}

/// A SimulatedSource whose method `down` is permanently out, as one object a
/// factory can hand out. With a gate, every access first waits at it.
class OutageSource : public AccessSource {
 public:
  OutageSource(const Schema* schema, const Instance* instance,
               AccessMethodId down, Clock* clock, Gate* gate)
      : base_(schema, instance),
        faulty_(&base_, Outage(down), /*seed=*/1, clock),
        gate_(gate) {}
  Result<AccessOutcome> TryAccess(AccessMethodId method,
                                  const Tuple& inputs) override {
    if (gate_ != nullptr) gate_->Pass();
    return faulty_.TryAccess(method, inputs);
  }
  const Schema& schema() const override { return faulty_.schema(); }

 private:
  static FaultProfile Outage(AccessMethodId down) {
    FaultProfile profile;
    profile.permanent_outages.insert(down);
    return profile;
  }

  SimulatedSource base_;
  FaultInjectingSource faulty_;
  Gate* gate_;
};

/// ServiceFailoverTest's world: R has a cheap and an expensive method, and
/// the sources Factory() hands out have the cheap one down from the start.
/// Options() fails an execution on its first kUnavailable and quarantines
/// the method at once; the clock is never advanced, so no recovery probe
/// runs.
struct OutageWorld {
  std::unique_ptr<Schema> schema;
  AccessMethodId cheap = 0;
  std::unique_ptr<AccessibleSchema> accessible;
  std::unique_ptr<Instance> instance;
  ConjunctiveQuery query;
  SharedVirtualClock clock;

  QueryService::SourceFactory Factory(Gate* gate = nullptr) {
    return [this, gate] {
      return std::make_unique<OutageSource>(schema.get(), instance.get(),
                                            cheap, &clock, gate);
    };
  }
  ServiceOptions Options() {
    ServiceOptions options;
    options.num_workers = 2;
    options.clock = &clock;
    options.execution.retry.max_attempts = 1;
    options.health.quarantine_after_consecutive = 1;
    return options;
  }
};

void BuildOutageWorld(OutageWorld& world) {
  world.schema = std::make_unique<Schema>();
  RelationId r = world.schema->AddRelation("R", 2).value();
  world.cheap =
      world.schema->AddAccessMethod("mt_r_cheap", r, {}, 1.0).value();
  world.schema->AddAccessMethod("mt_r_expensive", r, {}, 25.0).value();
  auto accessible =
      AccessibleSchema::Build(*world.schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();
  world.accessible =
      std::make_unique<AccessibleSchema>(std::move(accessible).value());
  world.instance = std::make_unique<Instance>(world.schema.get());
  for (int i = 0; i < 4; ++i) {
    world.instance->AddFact(r, Tuple{Value::Int(i), Value::Int(i * 10)});
  }
  auto query = ParseQuery(*world.schema, "Q(x, y) :- R(x, y)");
  ASSERT_TRUE(query.ok()) << query.status();
  world.query = std::move(query).value();
}

TEST(ServiceCoalescingTest, FailoverAfterMidWaitBumpCachesUnderTheNewEpoch) {
  OutageWorld world;
  ASSERT_NO_FATAL_FAILURE(BuildOutageWorld(world));
  Gate gate;
  GatedCostFunction cost(world.schema.get(), &gate);
  QueryService service(world.accessible.get(), &cost, world.Factory(),
                       world.Options());

  QueryRequest request;
  request.query = world.query;
  // A plan-only leader holds its flight inside the proof search.
  QueryRequest plan_only = request;
  plan_only.execute = false;
  auto leader = service.Submit(std::move(plan_only));
  gate.AwaitArrival();
  // An executing follower parks on that flight. The bump invalidates it, so
  // the follower re-resolves the epoch and leads a search of its own.
  auto follower = service.Submit(QueryRequest(request));
  SpinUntil([&] { return service.SnapshotStats().coalesced_waiting == 1; });
  EXPECT_EQ(service.BumpEpoch(), 2u);
  SpinUntil([&] { return gate.arrivals.load(std::memory_order_acquire) >= 2; });
  gate.Open();

  QueryResponse planned = leader.future.get();
  ASSERT_TRUE(planned.status.ok()) << planned.status;
  // The follower's cheap plan fails on the down method; the quarantine moves
  // the availability epoch, and the follower fails over in-request.
  QueryResponse detoured = follower.future.get();
  ASSERT_TRUE(detoured.status.ok()) << detoured.status;
  EXPECT_EQ(detoured.epoch, 2u);
  EXPECT_TRUE(detoured.failed_over);
  EXPECT_TRUE(detoured.degraded);
  EXPECT_EQ(detoured.execution.output.size(), 4u);

  // The detour was cached under the epoch the follower was planned under, so
  // the next identical request hits it instead of searching again.
  QueryResponse next = service.Call(QueryRequest(request));
  ASSERT_TRUE(next.status.ok()) << next.status;
  EXPECT_TRUE(next.cache_hit);
  EXPECT_TRUE(next.degraded);
  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.searches, 3u)
      << "the old leader's, the follower's, and the follower's detour";
  EXPECT_EQ(stats.failovers, 1u);
  service.Shutdown();
}

TEST(ServiceEpochTest, StaleRequestFailsOverPastANewerSchemaEpochsPlan) {
  // Schema and availability epochs both start at 1. A request planned under
  // schema epoch 1 is still executing when the schema epoch moves to 2 and a
  // second request caches a plan on the cheap method under (2, 1). The
  // first request's failure then quarantines that method, moving the
  // availability epoch to 2: its failover key, (1, 2), names a different
  // regime than (2, 1) and must not reach the second request's plan.
  OutageWorld world;
  ASSERT_NO_FATAL_FAILURE(BuildOutageWorld(world));
  Gate gate;
  SimpleCostFunction cost(world.schema.get());
  QueryService service(world.accessible.get(), &cost, world.Factory(&gate),
                       world.Options());

  QueryRequest request;
  request.query = world.query;
  auto stale = service.Submit(QueryRequest(request));
  gate.AwaitArrival();  // Planned and cached under (1, 1), now executing.
  EXPECT_EQ(service.BumpEpoch(), 2u);
  QueryRequest plan_only = request;
  plan_only.execute = false;
  QueryResponse current = service.Call(std::move(plan_only));
  gate.Open();
  ASSERT_TRUE(current.status.ok()) << current.status;
  EXPECT_EQ(current.epoch, 2u);
  EXPECT_FALSE(current.cache_hit);
  EXPECT_FALSE(current.degraded) << "nothing is quarantined yet";

  QueryResponse detoured = stale.future.get();
  ASSERT_TRUE(detoured.status.ok()) << detoured.status;
  EXPECT_EQ(detoured.epoch, 1u);
  EXPECT_TRUE(detoured.failed_over);
  EXPECT_TRUE(detoured.degraded);
  EXPECT_EQ(detoured.execution.output.size(), 4u);
  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.searches, 3u)
      << "the stale request's, the current request's, and the detour";
  EXPECT_EQ(stats.failovers, 1u);
  service.Shutdown();
}

}  // namespace
}  // namespace lcp
