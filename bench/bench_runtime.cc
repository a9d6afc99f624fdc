// Experiment E12: execution engine throughput. Measures ExecutePlan on a
// join-heavy plan — free scan of R, keyed probe of S driven by R's keys,
// keyed probe of T driven by S's keys, then a two-join middleware pipeline
// with a final dedup-heavy projection — once per engine:
//
//   BM_ExecuteRowOracle  — tuple-at-a-time evaluation over row Tables
//                          (ExecutionEngine::kRowOracle).
//   BM_ExecuteVectorized — columnar ColumnBatch evaluation with batched
//                          access dispatch (ExecutionEngine::kVectorized,
//                          the default engine).
//
// bench/run_benches.sh pairs the two series and reports the speedup into
// BENCH_runtime_exec.json; the acceptance bar for the vectorized engine is
// >= 5x on the larger sizes.

#include <benchmark/benchmark.h>

#include <memory>
#include <random>

#include "lcp/runtime/executor.h"

namespace {

using namespace lcp;

/// R(a,b) fans out into S(b,c) (two rows per key) which fans out into
/// T(c,d) (two rows per key): the two middleware joins multiply row counts,
/// so evaluation — not source access — dominates.
struct Workload {
  Schema schema;
  std::unique_ptr<Instance> instance;

  explicit Workload(int n) {
    RelationId r = schema.AddRelation("R", 2).value();
    RelationId s = schema.AddRelation("S", 2).value();
    RelationId t = schema.AddRelation("T", 2).value();
    schema.AddAccessMethod("mt_r_free", r, {}, 2.0).value();
    schema.AddAccessMethod("mt_s_by0", s, {0}, 5.0).value();
    schema.AddAccessMethod("mt_t_by0", t, {0}, 5.0).value();
    instance = std::make_unique<Instance>(&schema);
    std::mt19937_64 prng(7);
    const int keys = std::max(1, n / 4);
    for (int i = 0; i < n; ++i) {
      const int64_t b = static_cast<int64_t>(prng() % keys);
      instance->AddFact(0, Tuple{Value::Int(i), Value::Int(b)});
    }
    for (int64_t b = 0; b < keys; ++b) {
      for (int64_t j = 0; j < 2; ++j) {
        const int64_t c = b * 2 + j;
        instance->AddFact(1, Tuple{Value::Int(b), Value::Int(c)});
        instance->AddFact(2, Tuple{Value::Int(c), Value::Int(c % 16)});
        instance->AddFact(2, Tuple{Value::Int(c), Value::Int(16 + c % 16)});
      }
    }
  }
};

Plan MakeJoinHeavyPlan() {
  Plan plan;
  AccessCommand scan_r;
  scan_r.method = 0;
  scan_r.output_table = "t0";
  scan_r.output_columns = {{"a", 0}, {"b", 1}};
  plan.commands.push_back(scan_r);

  AccessCommand probe_s;
  probe_s.method = 1;
  probe_s.input = RaExpr::Project(RaExpr::TempScan("t0"), {"b"});
  probe_s.input_binding = {{"b", 0}};
  probe_s.output_table = "t1";
  probe_s.output_columns = {{"b", 0}, {"c", 1}};
  plan.commands.push_back(probe_s);

  AccessCommand probe_t;
  probe_t.method = 2;
  probe_t.input = RaExpr::Project(RaExpr::TempScan("t1"), {"c"});
  probe_t.input_binding = {{"c", 0}};
  probe_t.output_table = "t2";
  probe_t.output_columns = {{"c", 0}, {"d", 1}};
  plan.commands.push_back(probe_t);

  plan.commands.push_back(QueryCommand{
      "t3", RaExpr::Join(RaExpr::TempScan("t0"), RaExpr::TempScan("t1"))});
  plan.commands.push_back(QueryCommand{
      "t4", RaExpr::Join(RaExpr::TempScan("t3"), RaExpr::TempScan("t2"))});
  plan.commands.push_back(QueryCommand{
      "t5", RaExpr::Project(RaExpr::TempScan("t4"), {"a", "d"})});
  plan.output_table = "t5";
  plan.output_attrs = {"a", "d"};
  return plan;
}

void RunEngine(benchmark::State& state, ExecutionEngine engine) {
  const int n = static_cast<int>(state.range(0));
  Workload w(n);
  Plan plan = MakeJoinHeavyPlan();
  SimulatedSource source(&w.schema, w.instance.get());
  ExecutionOptions options;
  options.engine = engine;
  size_t rows = 0;
  ExecStats exec;
  for (auto _ : state) {
    auto result = ExecutePlan(plan, source, options);
    benchmark::DoNotOptimize(result);
    if (!result.ok()) {
      state.SkipWithError("execution failed");
      return;
    }
    rows = result->output.size();
    exec = result->exec;
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["access_batches"] = static_cast<double>(exec.access_batches);
  state.counters["access_bindings"] = static_cast<double>(exec.access_bindings);
  state.counters["op_batches"] = static_cast<double>(exec.batches);
  state.counters["probe_hits"] = static_cast<double>(exec.probe_hits);
  state.counters["max_batch_rows"] = static_cast<double>(exec.max_batch_rows);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_ExecuteRowOracle(benchmark::State& state) {
  RunEngine(state, ExecutionEngine::kRowOracle);
}
BENCHMARK(BM_ExecuteRowOracle)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->ArgName("n")
    ->Unit(benchmark::kMillisecond);

void BM_ExecuteVectorized(benchmark::State& state) {
  RunEngine(state, ExecutionEngine::kVectorized);
}
BENCHMARK(BM_ExecuteVectorized)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->ArgName("n")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
