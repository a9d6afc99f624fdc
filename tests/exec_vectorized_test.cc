// Differential tests for the vectorized execution engine: for randomized
// schemas, instances, and plans, the vectorized engine must be
// bit-identical to the row oracle — same output rows in the same order,
// same completeness/degradation accounting, and the same statuses — both
// against a plain simulated source and under seeded fault injection.
// LCP_EXEC_STRESS_ITERS scales the number of seeds (CI stress job).
// Scenario machinery lives in exec_scenario.h.

#include <gtest/gtest.h>

#include <string>

#include "exec_scenario.h"
#include "lcp/base/budget.h"
#include "lcp/base/clock.h"
#include "lcp/runtime/executor.h"
#include "lcp/runtime/faults.h"

namespace lcp {
namespace {

using exec_testing::ExpectIdentical;
using exec_testing::ScenarioBuilder;
using exec_testing::StressIters;

TEST(ExecVectorizedDifferentialTest, FaultFreeRunsAreBitIdentical) {
  const int iters = StressIters(40);
  for (int seed = 0; seed < iters; ++seed) {
    ScenarioBuilder builder(static_cast<uint64_t>(seed) * 131 + 1);
    Schema schema;
    builder.BuildSchema(schema);
    Instance instance = builder.BuildInstance(schema);
    Plan plan = builder.BuildPlan();

    SimulatedSource row_source(&schema, &instance);
    ExecutionOptions row_opts;
    row_opts.engine = ExecutionEngine::kRowOracle;
    auto row = ExecutePlan(plan, row_source, row_opts);

    SimulatedSource vec_source(&schema, &instance);
    ExecutionOptions vec_opts;
    vec_opts.engine = ExecutionEngine::kVectorized;
    auto vec = ExecutePlan(plan, vec_source, vec_opts);

    ASSERT_EQ(row.ok(), vec.ok())
        << "seed " << seed << ": row=" << row.status().message()
        << " vec=" << vec.status().message();
    if (!row.ok()) {
      EXPECT_EQ(row.status().code(), vec.status().code()) << "seed " << seed;
      EXPECT_EQ(row.status().message(), vec.status().message())
          << "seed " << seed;
      continue;
    }
    ExpectIdentical(*row, *vec, seed);
    // Identical access sequences: same number of source hits and the same
    // distinct (method, binding) set.
    EXPECT_EQ(row_source.total_calls(), vec_source.total_calls())
        << "seed " << seed;
    EXPECT_EQ(row_source.distinct_pairs().size(),
              vec_source.distinct_pairs().size())
        << "seed " << seed;
  }
}

TEST(ExecVectorizedDifferentialTest, SeededFaultRunsAreBitIdentical) {
  const int iters = StressIters(30);
  for (int seed = 0; seed < iters; ++seed) {
    ScenarioBuilder builder(static_cast<uint64_t>(seed) * 977 + 3);
    Schema schema;
    builder.BuildSchema(schema);
    Instance instance = builder.BuildInstance(schema);
    Plan plan = builder.BuildPlan();

    FaultProfile profile;
    profile.defaults.transient_failure_rate = 0.3;
    profile.defaults.latency_base_micros = 5;
    if (seed % 2 == 1) profile.defaults.truncation_rate = 0.15;
    if (seed % 5 == 0) {
      // Some scenarios cannot recover: one method hard-down.
      profile.permanent_outages.insert(schema.num_access_methods() - 1);
    }

    ExecutionOptions opts;
    opts.retry.max_attempts = (seed % 3 == 0) ? 2 : 16;
    opts.retry.initial_backoff_micros = 10;
    opts.retry.jitter_fraction = 0.4;
    opts.retry.jitter_seed = static_cast<uint64_t>(seed);
    opts.retry.best_effort = (seed % 2 == 0);

    auto run_engine = [&](ExecutionEngine engine, FaultStats* fstats) {
      SimulatedSource base(&schema, &instance);
      VirtualClock clock;
      FaultInjectingSource faulty(&base, profile,
                                  static_cast<uint64_t>(seed) * 17 + 5, &clock);
      ExecutionOptions o = opts;
      o.clock = &clock;
      o.engine = engine;
      auto run = ExecutePlan(plan, faulty, o);
      *fstats = faulty.stats();
      return run;
    };

    FaultStats row_fs, vec_fs;
    auto row = run_engine(ExecutionEngine::kRowOracle, &row_fs);
    auto vec = run_engine(ExecutionEngine::kVectorized, &vec_fs);

    ASSERT_EQ(row.ok(), vec.ok())
        << "seed " << seed << ": row=" << row.status().message()
        << " vec=" << vec.status().message();
    // Identical seeded fault schedules: the engines issued the same access
    // sequence, so the injector drew the same numbers.
    EXPECT_EQ(row_fs.attempts, vec_fs.attempts) << "seed " << seed;
    EXPECT_EQ(row_fs.injected_failures, vec_fs.injected_failures)
        << "seed " << seed;
    EXPECT_EQ(row_fs.truncations, vec_fs.truncations) << "seed " << seed;
    EXPECT_EQ(row_fs.simulated_latency_micros, vec_fs.simulated_latency_micros)
        << "seed " << seed;
    if (!row.ok()) {
      EXPECT_EQ(row.status().code(), vec.status().code()) << "seed " << seed;
      EXPECT_EQ(row.status().message(), vec.status().message())
          << "seed " << seed;
      continue;
    }
    ExpectIdentical(*row, *vec, seed);
  }
}

TEST(ExecVectorizedDifferentialTest, BreakerScenariosStayIdentical) {
  // Breaker armed → both engines fall back to sequential dispatch; the
  // differential contract must hold there too.
  const int iters = StressIters(10);
  for (int seed = 0; seed < iters; ++seed) {
    ScenarioBuilder builder(static_cast<uint64_t>(seed) * 53 + 11);
    Schema schema;
    builder.BuildSchema(schema);
    Instance instance = builder.BuildInstance(schema);
    Plan plan = builder.BuildPlan();

    FaultProfile profile;
    profile.permanent_outages.insert(schema.num_access_methods() - 1);

    auto run_engine = [&](ExecutionEngine engine) {
      SimulatedSource base(&schema, &instance);
      FaultInjectingSource faulty(&base, profile, 3);
      ExecutionOptions o;
      o.retry.max_attempts = 2;
      o.retry.initial_backoff_micros = 0;
      o.retry.breaker_threshold = 3;
      o.retry.best_effort = true;
      o.engine = engine;
      return ExecutePlan(plan, faulty, o);
    };

    auto row = run_engine(ExecutionEngine::kRowOracle);
    auto vec = run_engine(ExecutionEngine::kVectorized);
    ASSERT_EQ(row.ok(), vec.ok()) << "seed " << seed;
    if (!row.ok()) {
      EXPECT_EQ(row.status().code(), vec.status().code()) << "seed " << seed;
      continue;
    }
    ExpectIdentical(*row, *vec, seed);
    EXPECT_EQ(row->retry.breaker_trips, vec->retry.breaker_trips)
        << "seed " << seed;
    EXPECT_EQ(row->retry.breaker_short_circuits,
              vec->retry.breaker_short_circuits)
        << "seed " << seed;
  }
}

TEST(ExecVectorizedTest, ExecStatsAreReported) {
  // Fixed two-access join plan: the vectorized engine must report batched
  // dispatch and operator batch counters.
  Schema schema;
  RelationId r = schema.AddRelation("R", 2).value();
  RelationId s = schema.AddRelation("S", 2).value();
  schema.AddAccessMethod("mt_r_free", r, {}, 2.0).value();
  schema.AddAccessMethod("mt_s_by0", s, {0}, 5.0).value();
  Instance instance(&schema);
  for (int i = 0; i < 8; ++i) {
    instance.AddFact(0, Tuple{Value::Int(i), Value::Int(i % 4)});
    instance.AddFact(1, Tuple{Value::Int(i % 4), Value::Int(i * 10)});
  }
  SimulatedSource source(&schema, &instance);

  Plan plan;
  AccessCommand first;
  first.method = 0;
  first.output_table = "t0";
  first.output_columns = {{"a", 0}, {"b", 1}};
  plan.commands.push_back(first);
  AccessCommand second;
  second.method = 1;
  second.input = RaExpr::Project(RaExpr::TempScan("t0"), {"b"});
  second.input_binding = {{"b", 0}};
  second.output_table = "t1";
  second.output_columns = {{"b", 0}, {"c", 1}};
  plan.commands.push_back(second);
  plan.commands.push_back(QueryCommand{
      "t2", RaExpr::Join(RaExpr::TempScan("t0"), RaExpr::TempScan("t1"))});
  plan.output_table = "t2";
  plan.output_attrs = {"a", "c"};

  ExecutionOptions options;  // vectorized by default
  auto result = ExecutePlan(plan, source, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->exec.access_batches, 2u);   // one per access command
  EXPECT_EQ(result->exec.access_bindings, 5u);  // 1 free + 4 distinct keys
  EXPECT_GT(result->exec.batches, 0u);
  EXPECT_GT(result->exec.probe_hits, 0u);
  EXPECT_GT(result->exec.rows_out, 0u);
}

TEST(ExecVectorizedTest, PreCancelledTokenAbortsIdentically) {
  // Cancellation is checked between commands; a token that is already
  // tripped must abort both engines with the same status before any
  // access, never a partial ok result.
  Schema schema;
  RelationId r = schema.AddRelation("R", 2).value();
  RelationId s = schema.AddRelation("S", 2).value();
  schema.AddAccessMethod("mt_r_free", r, {}, 2.0).value();
  schema.AddAccessMethod("mt_s_by0", s, {0}, 5.0).value();
  Instance instance(&schema);
  for (int i = 0; i < 60; ++i) {
    instance.AddFact(0, Tuple{Value::Int(i), Value::Int(i % 6)});
    instance.AddFact(1, Tuple{Value::Int(i % 6), Value::Int(i % 9)});
  }

  Plan plan;
  AccessCommand first;
  first.method = 0;
  first.output_table = "t0";
  first.output_columns = {{"a", 0}, {"b", 1}};
  plan.commands.push_back(first);
  AccessCommand second;
  second.method = 1;
  second.input = RaExpr::Project(RaExpr::TempScan("t0"), {"b"});
  second.input_binding = {{"b", 0}};
  second.output_table = "t1";
  second.output_columns = {{"b", 0}, {"c", 1}};
  plan.commands.push_back(second);
  plan.commands.push_back(QueryCommand{
      "t2", RaExpr::Join(RaExpr::TempScan("t0"), RaExpr::TempScan("t1"))});
  plan.commands.push_back(QueryCommand{
      "t3", RaExpr::Union(RaExpr::Project(RaExpr::TempScan("t2"), {"b", "c"}),
                          RaExpr::TempScan("t1"))});
  plan.output_table = "t3";
  plan.output_attrs = {"b", "c"};

  CancelToken token;
  token.Cancel(StatusCode::kCancelled);

  auto run = [&](ExecutionEngine engine) {
    SimulatedSource source(&schema, &instance);
    ExecutionOptions opts;
    opts.engine = engine;
    opts.cancel = &token;
    auto result = ExecutePlan(plan, source, opts);
    EXPECT_EQ(source.total_calls(), 0u);
    return result;
  };

  auto row = run(ExecutionEngine::kRowOracle);
  auto vec = run(ExecutionEngine::kVectorized);
  ASSERT_FALSE(row.ok());
  ASSERT_FALSE(vec.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(vec.status().code(), row.status().code());
  EXPECT_EQ(vec.status().message(), row.status().message());
  EXPECT_EQ(row.status().message(), "plan execution cancelled between commands");
}

}  // namespace
}  // namespace lcp
