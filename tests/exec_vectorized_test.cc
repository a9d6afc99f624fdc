// Differential tests for the vectorized execution engine: for randomized
// schemas, instances, and plans, the vectorized engine must be
// bit-identical to the row oracle — same output rows in the same order,
// same completeness/degradation accounting, and the same statuses — both
// against a plain simulated source and under seeded fault injection.
// LCP_EXEC_STRESS_ITERS scales the number of seeds (CI stress job).
// Scenario machinery lives in exec_scenario.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

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

/// Forwards only the Tuple entry points, so the vectorized engine reaches
/// the wrapped source through AccessSource's default code adapter.
class PassThroughSource : public AccessSource {
 public:
  explicit PassThroughSource(SimulatedSource* inner) : inner_(inner) {}
  Result<AccessOutcome> TryAccess(AccessMethodId method,
                                  const Tuple& inputs) override {
    return inner_->TryAccess(method, inputs);
  }
  void TryAccessBatch(AccessMethodId method, const std::vector<Tuple>& bindings,
                      std::vector<BatchEntryOutcome>& outcomes) override {
    inner_->TryAccessBatch(method, bindings, outcomes);
  }
  const Schema& schema() const override { return inner_->schema(); }

 private:
  SimulatedSource* inner_;
};

/// PassThroughSource that answers one binding of one method with its first
/// tuple twice — legal for Tuple answers, which the engine dedups.
class RepeatingSource : public PassThroughSource {
 public:
  RepeatingSource(SimulatedSource* inner, AccessMethodId method, Tuple binding)
      : PassThroughSource(inner),
        method_(method),
        binding_(std::move(binding)) {}
  Result<AccessOutcome> TryAccess(AccessMethodId method,
                                  const Tuple& inputs) override {
    Result<AccessOutcome> outcome = PassThroughSource::TryAccess(method, inputs);
    if (!outcome.ok() || method != method_ || inputs != binding_ ||
        outcome->tuples->empty()) {
      return outcome;
    }
    repeated_ = *outcome->tuples;
    repeated_.push_back(repeated_.front());
    ++repeats_;
    return AccessOutcome{&repeated_, outcome->truncated};
  }
  void TryAccessBatch(AccessMethodId method, const std::vector<Tuple>& bindings,
                      std::vector<BatchEntryOutcome>& outcomes) override {
    AccessSource::TryAccessBatch(method, bindings, outcomes);
  }
  int repeats() const { return repeats_; }

 private:
  AccessMethodId method_;
  Tuple binding_;
  std::vector<Tuple> repeated_;
  int repeats_ = 0;
};

/// R(a, b) free, S(b, c) keyed on b, eight facts each: b = i % 4.
Schema TwoRelationSchema() {
  Schema schema;
  RelationId r = schema.AddRelation("R", 2).value();
  RelationId s = schema.AddRelation("S", 2).value();
  schema.AddAccessMethod("mt_r_free", r, {}, 2.0).value();
  schema.AddAccessMethod("mt_s_by0", s, {0}, 5.0).value();
  return schema;
}

Instance TwoRelationInstance(const Schema& schema) {
  Instance instance(&schema);
  for (int i = 0; i < 8; ++i) {
    instance.AddFact(0, Tuple{Value::Int(i), Value::Int(i % 4)});
    instance.AddFact(1, Tuple{Value::Int(i % 4), Value::Int(i * 10)});
  }
  return instance;
}

/// The counters ExpectIdentical leaves out: every RetryStats field, and the
/// ExecStats both engines fill (the access path) or, with `operators`, all
/// of them.
void ExpectSameStats(const ExecutionResult& a, const ExecutionResult& b,
                     bool operators, int seed) {
  EXPECT_EQ(a.retry.breaker_trips, b.retry.breaker_trips) << "seed " << seed;
  EXPECT_EQ(a.retry.breaker_short_circuits, b.retry.breaker_short_circuits)
      << "seed " << seed;
  EXPECT_EQ(a.retry.backoff_micros, b.retry.backoff_micros) << "seed " << seed;
  EXPECT_EQ(a.exec.access_batches, b.exec.access_batches) << "seed " << seed;
  EXPECT_EQ(a.exec.access_bindings, b.exec.access_bindings) << "seed " << seed;
  if (!operators) return;
  EXPECT_EQ(a.exec.batches, b.exec.batches) << "seed " << seed;
  EXPECT_EQ(a.exec.rows_in, b.exec.rows_in) << "seed " << seed;
  EXPECT_EQ(a.exec.rows_out, b.exec.rows_out) << "seed " << seed;
  EXPECT_EQ(a.exec.probe_hits, b.exec.probe_hits) << "seed " << seed;
  EXPECT_EQ(a.exec.dedup_drops, b.exec.dedup_drops) << "seed " << seed;
  EXPECT_EQ(a.exec.max_batch_rows, b.exec.max_batch_rows) << "seed " << seed;
}

/// Theorem 8's accounting: the same calls, the same charged cost, and the
/// same set of (method, binding) pairs.
void ExpectSameAccounting(const SimulatedSource& a, const SimulatedSource& b,
                          int seed) {
  EXPECT_EQ(a.total_calls(), b.total_calls()) << "seed " << seed;
  EXPECT_EQ(a.charged_cost(), b.charged_cost()) << "seed " << seed;
  EXPECT_TRUE(a.distinct_pairs() == b.distinct_pairs()) << "seed " << seed;
}

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

    // The vectorized engine again, through the Tuple-to-code adapter.
    SimulatedSource adapter_source(&schema, &instance);
    PassThroughSource pass_through(&adapter_source);
    auto adapted = ExecutePlan(plan, pass_through, vec_opts);

    ASSERT_EQ(row.ok(), vec.ok())
        << "seed " << seed << ": row=" << row.status().message()
        << " vec=" << vec.status().message();
    ASSERT_EQ(row.ok(), adapted.ok())
        << "seed " << seed << ": row=" << row.status().message()
        << " adapted=" << adapted.status().message();
    if (!row.ok()) {
      EXPECT_EQ(row.status().code(), vec.status().code()) << "seed " << seed;
      EXPECT_EQ(row.status().message(), vec.status().message())
          << "seed " << seed;
      EXPECT_EQ(row.status().message(), adapted.status().message())
          << "seed " << seed;
      continue;
    }
    ExpectIdentical(*row, *vec, seed);
    ExpectIdentical(*row, *adapted, seed);
    ExpectSameStats(*row, *vec, /*operators=*/false, seed);
    ExpectSameStats(*vec, *adapted, /*operators=*/true, seed);
    // Identical access sequences: same number of source hits and the same
    // distinct (method, binding) set.
    EXPECT_EQ(row_source.total_calls(), vec_source.total_calls())
        << "seed " << seed;
    EXPECT_EQ(row_source.distinct_pairs().size(),
              vec_source.distinct_pairs().size())
        << "seed " << seed;
    ExpectSameAccounting(row_source, vec_source, seed);
    ExpectSameAccounting(row_source, adapter_source, seed);
  }
}

TEST(SourceContractTest, AnswersCarryTheirBindingWithoutRepeats) {
  // AccessSource's contract, which the engine's skipped answer dedup and the
  // optimizer's binding-join elimination rely on: every returned tuple
  // carries its binding at the method's input positions, and no entry
  // repeats a row — on SimulatedSource's Tuple and code entry points and
  // through FaultInjectingSource's truncation.
  const int iters = StressIters(40);
  size_t truncations = 0;
  for (int seed = 0; seed < iters; ++seed) {
    ScenarioBuilder builder(static_cast<uint64_t>(seed) * 389 + 29);
    Schema schema;
    builder.BuildSchema(schema);
    Instance instance = builder.BuildInstance(schema);
    std::mt19937_64 prng(static_cast<uint64_t>(seed));
    SimulatedSource source(&schema, &instance);
    SimulatedSource base(&schema, &instance);
    FaultProfile profile;
    profile.defaults.truncation_rate = 0.5;
    FaultInjectingSource faulty(&base, profile, static_cast<uint64_t>(seed));

    for (AccessMethodId m = 0; m < schema.num_access_methods(); ++m) {
      const AccessMethod& method = schema.access_method(m);
      const std::vector<Tuple>& facts =
          instance.relation(method.relation).tuples();
      // Bindings read off the instance, a value it lacks now and then.
      std::vector<Tuple> bindings;
      for (int b = 0; b < 6; ++b) {
        const Tuple* fact =
            facts.empty() ? nullptr : &facts[prng() % facts.size()];
        Tuple binding;
        for (int pos : method.input_positions) {
          binding.push_back(fact == nullptr || prng() % 5 == 0
                                ? Value::Int(-1)
                                : (*fact)[pos]);
        }
        bindings.push_back(std::move(binding));
      }
      auto check = [&](const std::vector<Tuple>& rows, const Tuple& binding,
                       const char* path) {
        std::vector<Tuple> seen;
        for (const Tuple& row : rows) {
          for (size_t s = 0; s < binding.size(); ++s) {
            EXPECT_EQ(row[method.input_positions[s]], binding[s])
                << path << ", seed " << seed << ", method " << method.name;
          }
          EXPECT_EQ(std::count(seen.begin(), seen.end(), row), 0)
              << path << ", seed " << seed << ", method " << method.name;
          seen.push_back(row);
        }
      };

      std::vector<BatchEntryOutcome> batch;
      source.TryAccessBatch(m, bindings, batch);
      ASSERT_EQ(batch.size(), bindings.size());
      for (size_t i = 0; i < bindings.size(); ++i) {
        check(source.Access(m, bindings[i]), bindings[i], "Access");
        check(batch[i].Rows(), bindings[i], "TryAccessBatch");
      }

      TermPool pool(source.dictionary());
      CodeBindings codes;
      codes.width = method.input_positions.size();
      codes.count = bindings.size();
      for (const Tuple& binding : bindings) {
        for (const Value& v : binding) codes.codes.push_back(pool.Intern(v));
      }
      CodeBatchOutcome answers;
      source.TryAccessCodes(m, codes, pool, answers);
      ASSERT_EQ(answers.entries.size(), bindings.size());
      const size_t arity =
          static_cast<size_t>(schema.relation(method.relation).arity);
      for (size_t i = 0; i < bindings.size(); ++i) {
        const CodeEntryOutcome& entry = answers.entries[i];
        ASSERT_TRUE(entry.status.ok());
        ASSERT_EQ(entry.tuples, nullptr) << "a code-native entry";
        std::vector<Tuple> rows;
        for (size_t r = 0; r < entry.num_rows; ++r) {
          Tuple row;
          for (size_t p = 0; p < arity; ++p) {
            row.push_back(pool.Decode(entry.rows[r * arity + p]));
          }
          rows.push_back(std::move(row));
        }
        check(rows, bindings[i], "TryAccessCodes");
      }

      std::vector<BatchEntryOutcome> truncated;
      faulty.TryAccessBatch(m, bindings, truncated);
      ASSERT_EQ(truncated.size(), bindings.size());
      for (size_t i = 0; i < bindings.size(); ++i) {
        ASSERT_TRUE(truncated[i].status.ok());
        check(truncated[i].Rows(), bindings[i], "faulty TryAccessBatch");
        Result<AccessOutcome> single = faulty.TryAccess(m, bindings[i]);
        ASSERT_TRUE(single.ok());
        check(*single->tuples, bindings[i], "faulty TryAccess");
      }
    }
    truncations += faulty.stats().truncations;
  }
  EXPECT_GT(truncations, 0u);
}

TEST(ExecVectorizedDifferentialTest, AbsentConstantMatchesNothing) {
  // A plan that selects on, and binds, a value the instance does not hold:
  // the code path gives it a pool code above the source's dictionary, so it
  // matches nothing, and the binding still costs one call and one pair.
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
  const Value absent = Value::Str("absent");

  Plan plan;
  AccessCommand scan;
  scan.method = 0;
  scan.output_table = "t0";
  scan.output_columns = {{"a", 0}, {"b", 1}};
  plan.commands.push_back(scan);
  AccessCommand filtered = scan;  // selects on the absent constant
  filtered.output_table = "t1";
  filtered.position_constants = {{1, absent}};
  plan.commands.push_back(filtered);
  AccessCommand probe;
  probe.method = 1;
  probe.input = RaExpr::Project(RaExpr::TempScan("t0"), {"b"});
  probe.input_binding = {{"b", 0}};
  probe.output_table = "t2";
  probe.output_columns = {{"b", 0}, {"c", 1}};
  plan.commands.push_back(probe);
  AccessCommand bound;  // binds the absent constant
  bound.method = 1;
  bound.constant_inputs = {{0, absent}};
  bound.output_table = "t3";
  bound.output_columns = {{"b", 0}, {"c", 1}};
  plan.commands.push_back(bound);
  RaExpr::Condition c_is_absent;
  c_is_absent.kind = RaExpr::Condition::Kind::kAttrEqConst;
  c_is_absent.lhs = "c";
  c_is_absent.rhs_const = absent;
  plan.commands.push_back(QueryCommand{
      "t4", RaExpr::Union(
                RaExpr::Union(RaExpr::TempScan("t2"), RaExpr::TempScan("t3")),
                RaExpr::Select(RaExpr::TempScan("t2"), {c_is_absent}))});
  plan.commands.push_back(QueryCommand{
      "t5", RaExpr::Union(
                RaExpr::Project(RaExpr::TempScan("t1"), {"b"}),
                RaExpr::Project(RaExpr::TempScan("t4"), {"b"}))});
  plan.output_table = "t5";
  plan.output_attrs = {"b"};

  SimulatedSource row_source(&schema, &instance);
  ExecutionOptions row_opts;
  row_opts.engine = ExecutionEngine::kRowOracle;
  auto row = ExecutePlan(plan, row_source, row_opts);
  SimulatedSource vec_source(&schema, &instance);
  ExecutionOptions vec_opts;
  TableEnv vec_env;
  auto vec = ExecutePlan(plan, vec_source, vec_opts, &vec_env);
  SimulatedSource adapter_source(&schema, &instance);
  PassThroughSource pass_through(&adapter_source);
  auto adapted = ExecutePlan(plan, pass_through, vec_opts);
  ASSERT_TRUE(row.ok()) << row.status();
  ASSERT_TRUE(vec.ok()) << vec.status();
  ASSERT_TRUE(adapted.ok()) << adapted.status();
  ExpectIdentical(*row, *vec, 0);
  ExpectIdentical(*row, *adapted, 0);
  ExpectSameStats(*row, *vec, /*operators=*/false, 0);
  ExpectSameStats(*vec, *adapted, /*operators=*/true, 0);
  ExpectSameAccounting(row_source, vec_source, 0);
  ExpectSameAccounting(row_source, adapter_source, 0);

  // It matches nothing: the filtered scan, the bound probe and the
  // selection are empty, and the answer is the four keys of S.
  EXPECT_TRUE(vec_env.at("t1").empty());
  EXPECT_TRUE(vec_env.at("t3").empty());
  EXPECT_EQ(vec->output.size(), 4u);
  // Two free scans, four keyed probes and the absent binding; the free
  // scans share one pair.
  EXPECT_EQ(vec_source.total_calls(), 7u);
  EXPECT_EQ(vec_source.distinct_pairs().size(), 6u);
  EXPECT_EQ(vec_source.distinct_pairs().count(AccessPair{1, Tuple{absent}}),
            1u);
  EXPECT_EQ(vec_source.charged_cost(), 2.0 + 2.0 + 5 * 5.0);

  // The dictionary never took the value, and a pool layered over it codes
  // the value above every dictionary code.
  const TermPool* dictionary = vec_source.dictionary();
  ASSERT_NE(dictionary, nullptr);
  EXPECT_FALSE(dictionary->Find(absent).has_value());
  EXPECT_EQ(dictionary->size(), 15u);  // 0..7 and 10, 20, ..., 70
  TermPool pool(dictionary);
  EXPECT_GE(pool.Intern(absent), dictionary->size());
  EXPECT_EQ(pool.Intern(Value::Int(3)), *dictionary->Find(Value::Int(3)));
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

TEST(ExecVectorizedTest, RepeatedTupleAnswersAreDeduplicated) {
  // A Tuple source may answer a binding with the same tuple twice; rows
  // that come through the adapter keep their dedup.
  Schema schema = TwoRelationSchema();
  Instance instance = TwoRelationInstance(schema);
  Plan plan;
  AccessCommand scan;
  scan.method = 0;
  scan.output_table = "t0";
  scan.output_columns = {{"a", 0}, {"b", 1}};
  plan.commands.push_back(scan);
  AccessCommand probe;
  probe.method = 1;
  probe.input = RaExpr::Project(RaExpr::TempScan("t0"), {"b"});
  probe.input_binding = {{"b", 0}};
  probe.output_table = "t1";
  probe.output_columns = {{"b", 0}, {"c", 1}};
  plan.commands.push_back(probe);
  plan.output_table = "t1";
  plan.output_attrs = {"b", "c"};

  SimulatedSource row_source(&schema, &instance);
  ExecutionOptions row_opts;
  row_opts.engine = ExecutionEngine::kRowOracle;
  auto row = ExecutePlan(plan, row_source, row_opts);
  SimulatedSource inner(&schema, &instance);
  RepeatingSource repeating(&inner, 1, Tuple{Value::Int(2)});
  ExecutionOptions vec_opts;
  auto vec = ExecutePlan(plan, repeating, vec_opts);
  ASSERT_TRUE(row.ok()) << row.status();
  ASSERT_TRUE(vec.ok()) << vec.status();
  EXPECT_EQ(repeating.repeats(), 1);
  ExpectIdentical(*row, *vec, 0);
  EXPECT_EQ(vec->output.size(), 8u);
  EXPECT_EQ(vec->exec.dedup_drops, 1u);
}

TEST(ExecVectorizedTest, ReusedAccessOutputTableStaysDeduplicated) {
  // Two accesses write one table (no validated plan does; ExecutePlan
  // runs it): the second one's answers are appended, and the rows both
  // return are kept once.
  Schema schema = TwoRelationSchema();
  Instance instance = TwoRelationInstance(schema);
  Plan plan;
  AccessCommand all;
  all.method = 0;
  all.output_table = "t0";
  all.output_columns = {{"a", 0}, {"b", 1}};
  plan.commands.push_back(all);
  AccessCommand some = all;  // a subset of the same rows
  some.position_constants = {{1, Value::Int(1)}};
  plan.commands.push_back(some);
  plan.output_table = "t0";
  plan.output_attrs = {"a", "b"};

  SimulatedSource row_source(&schema, &instance);
  ExecutionOptions row_opts;
  row_opts.engine = ExecutionEngine::kRowOracle;
  auto row = ExecutePlan(plan, row_source, row_opts);
  SimulatedSource vec_source(&schema, &instance);
  TableEnv vec_env;
  auto vec = ExecutePlan(plan, vec_source, ExecutionOptions{}, &vec_env);
  ASSERT_TRUE(row.ok()) << row.status();
  ASSERT_TRUE(vec.ok()) << vec.status();
  ExpectIdentical(*row, *vec, 0);
  EXPECT_EQ(vec->output.size(), 8u);
  EXPECT_EQ(vec_env.at("t0").size(), 8u);
  EXPECT_EQ(vec->exec.dedup_drops, 2u);  // a = 1 and a = 5
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
