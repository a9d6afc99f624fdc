// The plan-IR optimizer (DESIGN.md §11) on its two target plan families:
//
//  - join-heavy: a four-leaf join chain written cartesian-product-first,
//    with a selection left above one scan. Join reorder groups shared
//    attributes, the selection fold moves the selection into the access.
//  - chain: the proof plan of the referential chain R0 -> ... -> R4
//    (perfbench's exec_heavy shape): five dependent accesses, each
//    followed by the join of its answers back onto its binding table.
//    Binding-join elimination turns the four joins into scans; the cost
//    stays 5.
//
// BM_Optimize* measures the optimizer's own latency and records
// cost-before/after for the full pipeline plus the per-pass cost deltas as
// counters (the JSON rows run_benches.sh summarizes). BM_Exec* measures
// execution time of the unoptimized vs optimized plan on the vectorized
// engine — the delta the optimizer actually buys at runtime. The source is
// built once per benchmark, as a serving worker's source lives across
// requests, so an iteration does not include its dictionary and index
// build.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/data/generator.h"
#include "lcp/plan/opt/pass_manager.h"
#include "lcp/planner/proof_search.h"
#include "lcp/runtime/executor.h"
#include "lcp/runtime/source.h"
#include "lcp/workload/scenarios.h"

namespace {

using namespace lcp;

/// Schema and instance live behind pointers so Family can move without
/// invalidating the Instance's back-pointer into the schema.
struct Family {
  std::unique_ptr<Schema> schema = std::make_unique<Schema>();
  std::unique_ptr<Instance> instance;
  Plan plan;
};

/// Four free accesses joined cartesian-product-first — A(a,b) ⋈ B(c,d)
/// shares nothing; the profitable order goes through C(b,c) — plus a
/// selection left above the fourth scan for pushdown to fold.
Family MakeJoinHeavy(int rows) {
  Family family;
  RelationId a = family.schema->AddRelation("A", 2).value();
  RelationId b = family.schema->AddRelation("B", 2).value();
  RelationId c = family.schema->AddRelation("C", 2).value();
  family.schema->AddAccessMethod("free_a", a, {}, 2.0).value();
  family.schema->AddAccessMethod("free_b", b, {}, 2.0).value();
  family.schema->AddAccessMethod("free_c", c, {}, 2.0).value();
  family.instance = std::make_unique<Instance>(family.schema.get());
  for (int i = 0; i < rows; ++i) {
    family.instance->AddFact(a, Tuple{Value::Int(i % 23), Value::Int(i % 17)});
    family.instance->AddFact(b, Tuple{Value::Int(i % 19), Value::Int(i)});
    family.instance->AddFact(c, Tuple{Value::Int(i % 17), Value::Int(i % 19)});
  }

  auto access = [&](AccessMethodId method, const std::string& table,
                    const std::string& x, const std::string& y) {
    AccessCommand cmd;
    cmd.method = method;
    cmd.output_table = table;
    cmd.output_columns = {{x, 0}, {y, 1}};
    family.plan.commands.push_back(std::move(cmd));
  };
  access(0, "ta", "a", "b");
  access(1, "tb", "c", "d");
  access(2, "tc", "b", "c");
  access(0, "tf", "a", "f");  // second access to A, different column names
  family.plan.commands.push_back(QueryCommand{
      "fs", RaExpr::Select(RaExpr::TempScan("tf"),
                           {RaExpr::Condition::AttrEqConst(
                               "f", Value::Int(3))})});
  family.plan.commands.push_back(QueryCommand{
      "out",
      RaExpr::Join(
          RaExpr::Join(
              RaExpr::Join(RaExpr::TempScan("ta"), RaExpr::TempScan("tb")),
              RaExpr::TempScan("tc")),
          RaExpr::TempScan("fs"))});
  family.plan.output_table = "out";
  family.plan.output_attrs = {"a", "d"};
  return family;
}

/// The literal proof plan of MakeChainScenario(4)'s Q(a) :- R0(a, b) over
/// `rows` generated facts per relation drawn from `rows` values.
Family MakeChain(int rows) {
  Family family;
  Scenario scenario = MakeChainScenario(4).value();
  family.schema = std::move(scenario.schema);
  AccessibleSchema accessible =
      AccessibleSchema::Build(*family.schema, AccessibleVariant::kStandard)
          .value();
  SimpleCostFunction cost(family.schema.get());
  family.plan = ProofSearch(&accessible, &cost)
                    .Run(scenario.query, SearchOptions{})
                    .value()
                    .best->plan;
  GeneratorOptions gen;
  gen.facts_per_relation = rows;
  gen.domain_size = rows;
  gen.seed = 1;
  family.instance = std::make_unique<Instance>(
      GenerateInstance(*family.schema, gen).value());
  return family;
}

void RecordOptimizeCounters(benchmark::State& state, const Family& family) {
  SimpleCostFunction cost(family.schema.get());
  plan_opt::PassManager manager;
  plan_opt::OptimizeStats stats;
  Plan optimized =
      manager.Optimize(family.plan, *family.schema, cost, &stats).value();
  state.counters["cost_before"] = stats.cost_before;
  state.counters["cost_after"] = stats.cost_after;
  state.counters["commands_before"] = stats.commands_before;
  state.counters["commands_after"] = stats.commands_after;
  int joins_removed = 0;
  for (const plan_opt::PassStats& pass : stats.passes) {
    state.counters[pass.pass + "_cost_delta"] =
        pass.cost_before - pass.cost_after;
    joins_removed += pass.joins_removed;
  }
  state.counters["joins_removed"] = joins_removed;
}

void BM_OptimizeJoinHeavy(benchmark::State& state) {
  Family family = MakeJoinHeavy(/*rows=*/128);
  SimpleCostFunction cost(family.schema.get());
  plan_opt::PassManager manager;
  for (auto _ : state) {
    auto optimized = manager.Optimize(family.plan, *family.schema, cost);
    benchmark::DoNotOptimize(optimized);
  }
  RecordOptimizeCounters(state, family);
}
BENCHMARK(BM_OptimizeJoinHeavy);

void BM_OptimizeChain(benchmark::State& state) {
  Family family = MakeChain(/*rows=*/64);
  SimpleCostFunction cost(family.schema.get());
  plan_opt::PassManager manager;
  for (auto _ : state) {
    auto optimized = manager.Optimize(family.plan, *family.schema, cost);
    benchmark::DoNotOptimize(optimized);
  }
  RecordOptimizeCounters(state, family);
}
BENCHMARK(BM_OptimizeChain);

void RunExecBench(benchmark::State& state, const Family& family,
                  bool optimize) {
  Plan plan = family.plan;
  SimpleCostFunction cost(family.schema.get());
  if (optimize) {
    plan = plan_opt::PassManager()
               .Optimize(family.plan, *family.schema, cost)
               .value();
  }
  SimulatedSource source(family.schema.get(), family.instance.get());
  ExecutionOptions options;
  options.engine = ExecutionEngine::kVectorized;
  for (auto _ : state) {
    auto result = ExecutePlan(plan, source, options);
    if (!result.ok()) state.SkipWithError(result.status().message().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.counters["plan_cost"] = cost.Cost(plan);
  state.counters["access_commands"] =
      static_cast<double>(plan.NumAccessCommands());
}

void BM_ExecJoinHeavyUnopt(benchmark::State& state) {
  Family family = MakeJoinHeavy(/*rows=*/512);
  RunExecBench(state, family, /*optimize=*/false);
}
BENCHMARK(BM_ExecJoinHeavyUnopt)->Unit(benchmark::kMicrosecond);

void BM_ExecJoinHeavyOpt(benchmark::State& state) {
  Family family = MakeJoinHeavy(/*rows=*/512);
  RunExecBench(state, family, /*optimize=*/true);
}
BENCHMARK(BM_ExecJoinHeavyOpt)->Unit(benchmark::kMicrosecond);

void BM_ExecChainUnopt(benchmark::State& state) {
  Family family = MakeChain(/*rows=*/1024);
  RunExecBench(state, family, /*optimize=*/false);
}
BENCHMARK(BM_ExecChainUnopt)->Unit(benchmark::kMicrosecond);

void BM_ExecChainOpt(benchmark::State& state) {
  Family family = MakeChain(/*rows=*/1024);
  RunExecBench(state, family, /*optimize=*/true);
}
BENCHMARK(BM_ExecChainOpt)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
