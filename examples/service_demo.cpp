// Service demo: the concurrent query service layer over Example 1.
//
// A QueryService owns a worker pool and a canonicalizing plan cache: the
// first request for a query shape pays a full proof search; every
// α-equivalent request afterwards — same shape, renamed variables — costs
// one fingerprint and one cache probe. Schema edits advance an epoch that
// invalidates cached plans. The service also hardens the request lifecycle
// (DESIGN.md §7): bounded admission, end-to-end deadlines, cancellation
// tickets, and edge validation — the tail of this demo shows each refusal.
//
// Build & run:  ./build/examples/service_demo

#include <iostream>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/plan/opt/pass_manager.h"
#include "lcp/planner/proof_search.h"
#include "lcp/runtime/executor.h"
#include "lcp/runtime/faults.h"
#include "lcp/runtime/source.h"
#include "lcp/schema/parser.h"
#include "lcp/service/service.h"

int main() {
  using namespace lcp;

  // --- 1. Example 1's scenario: restricted Profinfo, free Udirect. --------
  Schema schema;
  RelationId profinfo = schema.AddRelation("Profinfo", 3).value();
  RelationId udirect = schema.AddRelation("Udirect", 2).value();
  schema.AddAccessMethod("mt_profinfo", profinfo, {0}).value();
  schema.AddAccessMethod("mt_udirect", udirect, {}).value();
  schema.AddConstant(Value::Str("smith"));
  schema.AddConstraint(
      ParseTgd(schema, "Profinfo(e, o, l) -> Udirect(e, l)").value());

  Instance instance(&schema);
  instance.AddFact("Profinfo",
                   {Value::Int(1), Value::Int(101), Value::Str("smith")});
  instance.AddFact("Profinfo",
                   {Value::Int(2), Value::Int(102), Value::Str("jones")});
  instance.AddFact("Profinfo",
                   {Value::Int(4), Value::Int(104), Value::Str("smith")});
  instance.AddFact("Udirect", {Value::Int(1), Value::Str("smith")});
  instance.AddFact("Udirect", {Value::Int(2), Value::Str("jones")});
  instance.AddFact("Udirect", {Value::Int(4), Value::Str("smith")});

  // --- 2. Stand up the service: 4 workers, each with its own source. ------
  AccessibleSchema accessible =
      AccessibleSchema::Build(schema, AccessibleVariant::kStandard).value();
  SimpleCostFunction cost(&schema);
  ServiceOptions options;
  options.num_workers = 4;
  // Admission control: at most 64 queued requests; when full, fast-fail the
  // newcomer with kResourceExhausted instead of queueing without bound.
  options.max_queue_depth = 64;
  options.shed_policy = ShedPolicy::kRejectNew;
  QueryService service(
      &accessible, &cost,
      [&] { return std::make_unique<SimulatedSource>(&schema, &instance); },
      options);

  auto report = [&](const char* label, const QueryResponse& response) {
    std::cout << label << ": " << (response.cache_hit ? "cache HIT" : "MISS")
              << ", epoch " << response.epoch << ", "
              << response.execution.output.size() << " rows, plan+exec "
              << (response.plan_micros + response.exec_micros) << "us\n";
  };

  // --- 3. First request plans; α-renamed repeats only probe the cache. ----
  QueryRequest request;
  request.query =
      ParseQuery(schema, "Q(eid) :- Profinfo(eid, onum, \"smith\")").value();
  QueryResponse first = service.Call(request);
  if (!first.status.ok()) {
    std::cout << "request failed: " << first.status.ToString() << "\n";
    return 1;
  }
  report("first request  ", first);
  std::cout << "served rows:\n" << first.execution.output.ToString();

  QueryRequest renamed;
  renamed.query =
      ParseQuery(schema, "Q(person) :- Profinfo(person, room, \"smith\")")
          .value();
  report("renamed request", service.Call(renamed));

  // --- 4. A schema edit advances the epoch and invalidates the cache. -----
  schema.AddConstant(Value::Str("jones"));
  std::cout << "schema edited; epoch now " << service.RefreshSchema() << "\n";
  report("after edit     ", service.Call(request));
  report("steady state   ", service.Call(renamed));

  // --- 5. The lifecycle edges: deadlines, cancellation, validation. -------
  QueryRequest hopeless = request;
  hopeless.deadline_micros = 0;  // already expired at Submit
  std::cout << "\nzero deadline   -> "
            << service.Call(hopeless).status.ToString() << "\n";

  // Cancellation is inherently a race from the caller's side: the cancel
  // may catch the request queued (kCancelled immediately), in flight
  // (kCancelled at the next poll), or already served (OK). All are valid;
  // the guarantee is only that the future resolves exactly once.
  SubmitHandle ticketed = service.Submit(request);
  service.Cancel(ticketed.ticket);
  std::cout << "cancel raced    -> "
            << ticketed.future.get().status.ToString() << "\n";

  QueryRequest malformed;
  malformed.query = request.query;
  malformed.query.free_variables.push_back("unbound");
  std::cout << "malformed query -> "
            << service.Call(malformed).status.ToString() << "\n";

  ServiceStats stats = service.SnapshotStats();
  std::cout << "\nservice stats: " << stats.submitted << " submitted = "
            << stats.completed << " completed + " << stats.rejected
            << " rejected + " << stats.shed << " shed + " << stats.cancelled
            << " cancelled; " << stats.searches << " proof searches, "
            << stats.cache_hits << " cache hits (hit rate "
            << stats.CacheHitRate() << "), queue high-water "
            << stats.queue_depth_high_water << "\n";

  // --- 6. Source health: outage -> failover -> probe -> recovery. ---------
  // A relation with a cheap primary method and an expensive fallback; the
  // primary suffers a scheduled outage on a virtual clock. The service
  // quarantines the dead method, re-plans around it in-request (responses
  // are marked degraded: exact answers, pricier plan), probes it when the
  // quarantine window expires, and restores the cheap plan after the heal.
  Schema schema2;
  RelationId rel = schema2.AddRelation("R", 2).value();
  AccessMethodId fast = schema2.AddAccessMethod("mt_fast", rel, {}, 1.0).value();
  schema2.AddAccessMethod("mt_slow", rel, {}, 20.0).value();
  Instance data2(&schema2);
  for (int i = 0; i < 3; ++i) {
    data2.AddFact("R", {Value::Int(i), Value::Int(i * 10)});
  }
  AccessibleSchema accessible2 =
      AccessibleSchema::Build(schema2, AccessibleVariant::kStandard).value();
  SimpleCostFunction cost2(&schema2);

  SharedVirtualClock vclock;
  SimulatedSource base2(&schema2, &data2);  // one worker => one factory call
  ServiceOptions failover_options;
  failover_options.num_workers = 1;
  failover_options.clock = &vclock;
  failover_options.execution.retry.max_attempts = 1;
  failover_options.health.quarantine_after_consecutive = 1;
  failover_options.health.quarantine_micros = 50000;
  QueryService failover_service(
      &accessible2, &cost2,
      [&] {
        auto source = std::make_unique<FaultInjectingSource>(
            &base2, FaultProfile{}, /*seed=*/1, &vclock);
        source->FailFrom(fast, 10000);    // outage begins at t=10ms
        source->RecoverAt(fast, 100000);  // source heals at t=100ms
        return source;
      },
      failover_options);

  QueryRequest redundant;
  redundant.query = ParseQuery(schema2, "Q(x, y) :- R(x, y)").value();
  auto show = [&](const char* label) {
    QueryResponse response = failover_service.Call(redundant);
    std::cout << label << " -> " << response.status.ToString()
              << ", plan cost " << (response.plan ? response.plan->cost : 0.0)
              << (response.failed_over ? " [failed over]" : "")
              << (response.degraded ? " [degraded]" : "") << "\n";
  };
  std::cout << "\n--- source health and failover (virtual time) ---\n";
  show("healthy       ");
  vclock.Advance(10000);  // into the outage
  show("during outage ");
  vclock.Advance(50000);  // quarantine window expires; probe fails
  show("probe fails   ");
  vclock.Advance(100000);  // past the heal and the backed-off window
  show("after recovery");

  ServiceStats fstats = failover_service.SnapshotStats();
  std::cout << "failover stats: " << fstats.failovers << " failovers, "
            << fstats.degraded_responses << " degraded responses, "
            << fstats.quarantines << " quarantines, " << fstats.probes_sent
            << " probes (" << fstats.probes_failed << " failed, "
            << fstats.recoveries << " recovered), "
            << fstats.methods_quarantined
            << " currently quarantined, availability epoch "
            << fstats.availability_epoch << "\n";

  // --- 7. Plan optimizer: the rewrites serving applies. -------------------
  // The serving path optimizes every freshly searched plan before cache
  // admission (ServiceOptions::search.optimize_plans, on by default). Here
  // is §3's query again: the plan the search reads off its proof, the
  // per-pass report, and the plan the service caches. The selection fold
  // moves the "smith" filters into the accesses; binding-join elimination
  // turns the join of Profinfo's answers back onto the ids that fed it into
  // a scan of the answers. Neither adds or removes an access, so the cost
  // stays the same.
  std::cout << "\n--- plan optimizer (DESIGN.md §11) ---\n";
  AccessibleSchema edited =
      AccessibleSchema::Build(schema, AccessibleVariant::kStandard).value();
  Plan literal = ProofSearch(&edited, &cost)
                     .Run(request.query, SearchOptions{})
                     .value()
                     .best->plan;
  plan_opt::OptimizeStats opt_stats;
  Plan optimized = plan_opt::PassManager()
                       .Optimize(literal, schema, cost, &opt_stats)
                       .value();
  std::cout << "searched plan:\n"
            << literal.ToString(schema) << opt_stats.ToString()
            << "served plan:\n"
            << optimized.ToString(schema);
  const QueryResponse served = service.Call(request);
  std::cout << "the service serves this plan: "
            << (served.plan != nullptr && served.plan->plan == optimized
                    ? "yes"
                    : "no")
            << "\n";

  SimulatedSource demo_source(&schema, &instance);
  ExecutionResult before = ExecutePlan(literal, demo_source).value();
  ExecutionResult after = ExecutePlan(optimized, demo_source).value();
  std::cout << "searched: " << before.access_commands << " access commands, "
            << before.source_calls << " source calls; served: "
            << after.access_commands << " access commands, "
            << after.source_calls << " source calls; both return "
            << after.output.size() << " row(s)\n";
  return 0;
}
