// The plan-IR optimizer (src/lcp/plan/opt/): per-pass unit tests, the
// seeded differential contract — an optimized plan computes exactly the
// same table as the plan it came from, on both execution engines — and the
// cost-monotonicity property the PassManager guarantees by construction.
// LCP_OPT_STRESS_ITERS scales the seeded suites (CI stress jobs).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/data/generator.h"
#include "lcp/plan/cardinality_cost.h"
#include "lcp/plan/opt/binding_join.h"
#include "lcp/plan/opt/join_reorder.h"
#include "lcp/plan/opt/pass_manager.h"
#include "lcp/plan/opt/pushdown.h"
#include "lcp/plan/validate.h"
#include "lcp/planner/proof_search.h"
#include "lcp/runtime/executor.h"
#include "lcp/schema/parser.h"
#include "lcp/service/service.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

using plan_opt::BindingJoinPass;
using plan_opt::JoinReorderPass;
using plan_opt::OptimizeStats;
using plan_opt::PassManager;
using plan_opt::PassStats;
using plan_opt::PushdownPass;

int StressIters(int fallback) {
  if (const char* env = std::getenv("LCP_OPT_STRESS_ITERS")) {
    return std::max(1, std::atoi(env));
  }
  return fallback;
}

Schema MakeSchema() {
  Schema schema;
  RelationId r = schema.AddRelation("R", 2).value();
  RelationId s = schema.AddRelation("S", 2).value();
  schema.AddAccessMethod("mt_r_free", r, {}, 2.0).value();
  schema.AddAccessMethod("mt_s_by0", s, {0}, 5.0).value();
  return schema;
}

Instance SmallInstance(const Schema& schema) {
  Instance instance(&schema);
  for (int i = 0; i < 8; ++i) {
    instance.AddFact(0, Tuple{Value::Int(i % 3), Value::Int(i % 4)});
    instance.AddFact(1, Tuple{Value::Int(i % 4), Value::Int(i * 10)});
  }
  return instance;
}

AccessCommand FreeAccess(AccessMethodId method, const std::string& table) {
  AccessCommand access;
  access.method = method;
  access.output_table = table;
  access.output_columns = {{"a", 0}, {"b", 1}};
  return access;
}

std::vector<Tuple> SortedRows(const Table& table) {
  std::vector<Tuple> rows = table.rows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The differential contract: both plans produce the same attribute list
/// and the same set of rows, on both engines. Row *order* is deliberately
/// not compared — join reorder changes the canonical join output order.
void ExpectSameResults(const Plan& original, const Plan& optimized,
                       const Schema& schema, const Instance& instance,
                       int seed) {
  auto run = [&](const Plan& plan, ExecutionEngine engine) {
    SimulatedSource source(&schema, &instance);
    ExecutionOptions options;
    options.engine = engine;
    return ExecutePlan(plan, source, options);
  };
  auto orig_row = run(original, ExecutionEngine::kRowOracle);
  auto orig_vec = run(original, ExecutionEngine::kVectorized);
  auto opt_row = run(optimized, ExecutionEngine::kRowOracle);
  auto opt_vec = run(optimized, ExecutionEngine::kVectorized);
  ASSERT_TRUE(orig_row.ok()) << "seed " << seed << ": "
                             << orig_row.status().message();
  ASSERT_TRUE(orig_vec.ok()) << "seed " << seed;
  ASSERT_TRUE(opt_row.ok()) << "seed " << seed << ": "
                            << opt_row.status().message();
  ASSERT_TRUE(opt_vec.ok()) << "seed " << seed;
  EXPECT_EQ(orig_row->output.attrs(), opt_row->output.attrs())
      << "seed " << seed;
  EXPECT_EQ(orig_vec->output.attrs(), opt_vec->output.attrs())
      << "seed " << seed;
  const std::vector<Tuple> expected = SortedRows(orig_row->output);
  EXPECT_EQ(expected, SortedRows(orig_vec->output)) << "seed " << seed;
  EXPECT_EQ(expected, SortedRows(opt_row->output)) << "seed " << seed;
  EXPECT_EQ(expected, SortedRows(opt_vec->output)) << "seed " << seed;
}

// ---------------------------------------------------------------------------
// Per-pass unit tests.

TEST(PushdownPassTest, FoldsSelectionIntoAccess) {
  Schema schema = MakeSchema();
  Instance instance = SmallInstance(schema);
  Plan plan;
  plan.commands.push_back(FreeAccess(0, "t0"));
  plan.commands.push_back(QueryCommand{
      "t1",
      RaExpr::Select(RaExpr::TempScan("t0"),
                     {RaExpr::Condition::AttrEqConst("a", Value::Int(1)),
                      RaExpr::Condition::AttrEqAttr("a", "b")})});
  plan.output_table = "t1";
  plan.output_attrs = {"a", "b"};
  const Plan original = plan;

  PassStats stats;
  EXPECT_TRUE(PushdownPass().Run(plan, schema, stats));
  EXPECT_EQ(stats.selections_folded, 2);
  const auto& access = std::get<AccessCommand>(plan.commands[0]);
  ASSERT_EQ(access.position_constants.size(), 1u);
  EXPECT_EQ(access.position_constants[0].first, 0);
  ASSERT_EQ(access.position_equalities.size(), 1u);
  // The query command now scans the (pre-filtered) access output directly.
  EXPECT_EQ(std::get<QueryCommand>(plan.commands[1]).expr->op(),
            RaExpr::Op::kTempScan);
  EXPECT_TRUE(ValidatePlan(plan, schema).ok());
  ExpectSameResults(original, plan, schema, instance, /*seed=*/-1);
}

TEST(PushdownPassTest, DoesNotFoldWhenTableHasOtherReaders) {
  Schema schema = MakeSchema();
  Plan plan;
  plan.commands.push_back(FreeAccess(0, "t0"));
  plan.commands.push_back(QueryCommand{
      "t1", RaExpr::Select(RaExpr::TempScan("t0"),
                           {RaExpr::Condition::AttrEqConst("a",
                                                           Value::Int(1))})});
  // t0 is also consumed unfiltered: folding would change this reader.
  plan.commands.push_back(QueryCommand{
      "t2", RaExpr::Union(RaExpr::TempScan("t0"), RaExpr::TempScan("t1"))});
  plan.output_table = "t2";
  plan.output_attrs = {"a", "b"};

  PassStats stats;
  PushdownPass().Run(plan, schema, stats);
  EXPECT_EQ(stats.selections_folded, 0);
  EXPECT_TRUE(
      std::get<AccessCommand>(plan.commands[0]).position_constants.empty());
}

TEST(JoinReorderPassTest, MovesSharedAttributesTogether) {
  Schema schema;
  RelationId a = schema.AddRelation("A", 2).value();
  RelationId b = schema.AddRelation("B", 2).value();
  RelationId c = schema.AddRelation("C", 2).value();
  schema.AddAccessMethod("free_a", a, {}).value();
  schema.AddAccessMethod("free_b", b, {}).value();
  schema.AddAccessMethod("free_c", c, {}).value();
  Instance instance(&schema);
  for (int i = 0; i < 6; ++i) {
    instance.AddFact(0, Tuple{Value::Int(i % 3), Value::Int(i)});
    instance.AddFact(1, Tuple{Value::Int(i % 2), Value::Int(i % 3)});
    instance.AddFact(2, Tuple{Value::Int(i), Value::Int(i % 2)});
  }

  auto access = [](AccessMethodId method, const std::string& table,
                   const std::string& x, const std::string& y) {
    AccessCommand cmd;
    cmd.method = method;
    cmd.output_table = table;
    cmd.output_columns = {{x, 0}, {y, 1}};
    return cmd;
  };
  Plan plan;
  plan.commands.push_back(access(0, "ta", "u", "v"));  // A(u, v)
  plan.commands.push_back(access(1, "tb", "w", "x"));  // B(w, x)
  plan.commands.push_back(access(2, "tc", "v", "w"));  // C(v, w)
  // ta ⋈ tb is a cartesian product; ta ⋈ tc shares v, then tb shares w.
  plan.commands.push_back(QueryCommand{
      "out",
      RaExpr::Join(RaExpr::Join(RaExpr::TempScan("ta"), RaExpr::TempScan("tb")),
                   RaExpr::TempScan("tc"))});
  plan.output_table = "out";
  plan.output_attrs = {"u", "x"};
  const Plan original = plan;

  PassStats stats;
  EXPECT_TRUE(JoinReorderPass().Run(plan, schema, stats));
  EXPECT_EQ(stats.joins_reordered, 1);
  // Rebuilt as Project[original attrs]((ta ⋈ tc) ⋈ tb).
  const auto& expr = *std::get<QueryCommand>(plan.commands[3]).expr;
  ASSERT_EQ(expr.op(), RaExpr::Op::kProject);
  const auto& top = *expr.children()[0];
  ASSERT_EQ(top.op(), RaExpr::Op::kJoin);
  EXPECT_EQ(top.children()[1]->table(), "tb");
  EXPECT_TRUE(ValidatePlan(plan, schema).ok());
  ExpectSameResults(original, plan, schema, instance, /*seed=*/-1);

  // Idempotent: the greedy order is stable under re-running.
  Plan once = plan;
  PassStats again;
  EXPECT_FALSE(JoinReorderPass().Run(plan, schema, again));
  (void)once;
}

// ---------------------------------------------------------------------------
// Binding-join elimination.

/// t0 <- R (a, b); t1 <- S by b from project[b](t0), out (b, c);
/// t2 := t0 ⋈ t1, read as t2[b, c]. Every t1 row carries the b of the t0
/// rows its binding came from, so t2 is t1 on the attributes read.
Plan BindingJoinPlan() {
  Plan plan;
  plan.commands.push_back(FreeAccess(0, "t0"));
  AccessCommand keyed;
  keyed.method = 1;
  keyed.input = RaExpr::Project(RaExpr::TempScan("t0"), {"b"});
  keyed.input_binding = {{"b", 0}};
  keyed.output_table = "t1";
  keyed.output_columns = {{"b", 0}, {"c", 1}};
  plan.commands.push_back(keyed);
  plan.commands.push_back(QueryCommand{
      "t2", RaExpr::Join(RaExpr::TempScan("t0"), RaExpr::TempScan("t1"))});
  plan.output_table = "t2";
  plan.output_attrs = {"b", "c"};
  return plan;
}

TEST(BindingJoinPassTest, ReplacesTheJoinByTheAnswers) {
  Schema schema = MakeSchema();
  Instance instance = SmallInstance(schema);
  for (const bool answers_first : {false, true}) {
    Plan plan = BindingJoinPlan();
    if (answers_first) {
      std::get<QueryCommand>(plan.commands[2]).expr =
          RaExpr::Join(RaExpr::TempScan("t1"), RaExpr::TempScan("t0"));
    }
    const Plan original = plan;
    PassStats stats;
    EXPECT_TRUE(BindingJoinPass().Run(plan, schema, stats));
    EXPECT_EQ(stats.joins_removed, 1);
    const RaExpr& expr = *std::get<QueryCommand>(plan.commands[2]).expr;
    ASSERT_EQ(expr.op(), RaExpr::Op::kTempScan);
    EXPECT_EQ(expr.table(), "t1");
    EXPECT_TRUE(ValidatePlan(plan, schema).ok());
    ExpectSameResults(original, plan, schema, instance, answers_first);

    // Idempotent: the scan is no join.
    PassStats again;
    EXPECT_FALSE(BindingJoinPass().Run(plan, schema, again));
  }
}

TEST(BindingJoinPassTest, KeepsJoinsWhoseResultItCannotProve) {
  Schema schema = MakeSchema();
  struct Variant {
    const char* name;
    void (*edit)(Plan&);
  };
  const Variant variants[] = {
      {"shared attribute the access does not bind",
       [](Plan& plan) {
         std::get<AccessCommand>(plan.commands[1]).output_columns = {
             {"b", 0}, {"a", 1}};
         plan.output_attrs = {"a", "b"};
       }},
      {"bindings read from another table",
       [](Plan& plan) {
         plan.commands.insert(plan.commands.begin(), FreeAccess(0, "u0"));
         std::get<AccessCommand>(plan.commands[2]).input =
             RaExpr::Project(RaExpr::TempScan("u0"), {"b"});
       }},
      {"a reader of an attribute only the left side has",
       [](Plan& plan) {
         plan.commands.push_back(
             QueryCommand{"t3", RaExpr::Project(RaExpr::TempScan("t2"),
                                                {"a", "c"})});
         plan.output_table = "t3";
         plan.output_attrs = {"c"};
       }},
      {"a join keyed on an attribute only the left side has",
       [](Plan& plan) {
         AccessCommand other = FreeAccess(0, "t3");
         other.output_columns = {{"a", 0}, {"d", 1}};
         plan.commands.push_back(other);
         plan.commands.push_back(QueryCommand{
             "t4",
             RaExpr::Join(RaExpr::TempScan("t2"), RaExpr::TempScan("t3"))});
         plan.output_table = "t4";
         plan.output_attrs = {"c", "d"};
       }},
      {"a union reader",
       [](Plan& plan) {
         plan.commands.push_back(QueryCommand{
             "t3",
             RaExpr::Union(RaExpr::TempScan("t2"), RaExpr::TempScan("t2"))});
         plan.output_table = "t3";
       }},
      {"a boolean output",
       [](Plan& plan) { plan.output_attrs.clear(); }},
  };
  for (const Variant& variant : variants) {
    Plan plan = BindingJoinPlan();
    variant.edit(plan);
    ASSERT_TRUE(ValidatePlan(plan, schema).ok()) << variant.name;
    const Plan original = plan;
    PassStats stats;
    EXPECT_FALSE(BindingJoinPass().Run(plan, schema, stats)) << variant.name;
    EXPECT_EQ(stats.joins_removed, 0) << variant.name;
    EXPECT_TRUE(plan == original) << variant.name;
  }
}

/// The plan the optimizing search returns for `query` over `scenario`.
SearchOutcome OptimizedSearch(const Scenario& scenario,
                              const ConjunctiveQuery& query,
                              const AccessibleSchema& accessible,
                              const CostFunction& cost) {
  ProofSearch search(&accessible, &cost);
  SearchOptions options;
  options.optimize_plans = true;
  Result<SearchOutcome> outcome = search.Run(query, options);
  EXPECT_TRUE(outcome.ok() && outcome->best.has_value()) << scenario.name;
  return std::move(outcome).value();
}

const PassStats& BindingJoinStats(const OptimizeStats& stats) {
  return stats.passes.back();
}

TEST(BindingJoinPassTest, ChainPlanJoinsBecomeScans) {
  auto scenario = MakeChainScenario(4).value();
  auto accessible =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard)
          .value();
  SimpleCostFunction cost(scenario.schema.get());
  ProofSearch search(&accessible, &cost);
  auto literal = search.Run(scenario.query, SearchOptions{});
  ASSERT_TRUE(literal.ok() && literal->best.has_value());
  SearchOutcome optimized =
      OptimizedSearch(scenario, scenario.query, accessible, cost);
  ASSERT_TRUE(optimized.best.has_value());

  const Plan& plan = optimized.best->plan;
  EXPECT_EQ(BindingJoinStats(optimized.optimize).pass, "binding_join");
  EXPECT_EQ(BindingJoinStats(optimized.optimize).joins_removed, 4);
  EXPECT_DOUBLE_EQ(literal->best->cost, 5.0);
  EXPECT_DOUBLE_EQ(optimized.best->cost, 5.0);
  EXPECT_EQ(plan.NumAccessCommands(), 5);
  int joins = 0;
  for (const Command& cmd : plan.commands) {
    const auto* query = std::get_if<QueryCommand>(&cmd);
    if (query != nullptr && query->expr->Uses(RaExpr::Op::kJoin)) ++joins;
  }
  EXPECT_EQ(joins, 0) << plan.ToString(*scenario.schema);

  GeneratorOptions gen;
  gen.facts_per_relation = 64;
  gen.domain_size = 64;
  gen.seed = 11;
  auto instance = GenerateInstance(*scenario.schema, gen);
  ASSERT_TRUE(instance.ok());
  ExpectSameResults(literal->best->plan, plan, *scenario.schema, *instance,
                    /*seed=*/4);
}

TEST(BindingJoinPassTest, UnboundSharedAttributeKeepsTheJoin) {
  // warm_hits' fourth shape: t1 ⋈ t2_f0 shares l_2, which Profinfo's
  // access does not bind, so the join still filters and must stay.
  auto scenario = MakeProfinfoScenario(/*boolean_query=*/false).value();
  auto accessible =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard)
          .value();
  SimpleCostFunction cost(scenario.schema.get());
  auto query = ParseQuery(*scenario.schema,
                          "Q(o) :- Udirect(e, \"smith\"), Profinfo(e, o, l)");
  ASSERT_TRUE(query.ok()) << query.status();
  SearchOutcome optimized = OptimizedSearch(scenario, *query, accessible, cost);
  ASSERT_TRUE(optimized.best.has_value());
  EXPECT_EQ(BindingJoinStats(optimized.optimize).joins_removed, 0);

  Plan plan = optimized.best->plan;
  const auto& last_join = std::get<QueryCommand>(plan.commands.end()[-2]);
  ASSERT_EQ(last_join.expr->op(), RaExpr::Op::kJoin)
      << plan.ToString(*scenario.schema);
  const Plan before = plan;
  PassStats stats;
  EXPECT_FALSE(BindingJoinPass().Run(plan, *scenario.schema, stats));
  EXPECT_TRUE(plan == before);
}

// ---------------------------------------------------------------------------
// PassManager contracts.

TEST(PassManagerTest, RunsEachPassOnceInOrder) {
  // Example 1's proof plan: two selections fold into their accesses and
  // the join of Profinfo's answers back onto its binding table becomes a
  // scan. Each pass runs once, and a second Optimize finds nothing left.
  auto scenario = MakeProfinfoScenario(/*boolean_query=*/false).value();
  auto accessible =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard)
          .value();
  SimpleCostFunction cost(scenario.schema.get());
  auto literal = ProofSearch(&accessible, &cost).Run(scenario.query, {});
  ASSERT_TRUE(literal.ok() && literal->best.has_value());
  const Plan& plan = literal->best->plan;

  PassManager manager;
  OptimizeStats stats;
  auto optimized = manager.Optimize(plan, *scenario.schema, cost, &stats);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  ASSERT_EQ(stats.passes.size(), 3u);
  EXPECT_EQ(stats.passes[0].pass, "pushdown");
  EXPECT_EQ(stats.passes[0].selections_folded, 2);
  EXPECT_EQ(stats.passes[1].pass, "join_reorder");
  EXPECT_EQ(stats.passes[1].applications, 0);
  EXPECT_EQ(stats.passes[2].pass, "binding_join");
  EXPECT_EQ(stats.passes[2].joins_removed, 1);
  for (const PassStats& pass : stats.passes) EXPECT_EQ(pass.rejected, 0);
  EXPECT_TRUE(stats.changed);
  EXPECT_EQ(stats.commands_after, stats.commands_before);
  EXPECT_DOUBLE_EQ(stats.cost_after, stats.cost_before);
  EXPECT_TRUE(ValidatePlan(*optimized, *scenario.schema).ok());

  OptimizeStats again;
  auto twice = manager.Optimize(*optimized, *scenario.schema, cost, &again);
  ASSERT_TRUE(twice.ok()) << twice.status();
  EXPECT_FALSE(again.changed);
  EXPECT_TRUE(*twice == *optimized);

  GeneratorOptions gen;
  gen.facts_per_relation = 16;
  gen.seed = 3;
  auto instance = GenerateInstance(*scenario.schema, gen);
  ASSERT_TRUE(instance.ok());
  ExpectSameResults(plan, *optimized, *scenario.schema, *instance,
                    /*seed=*/-1);
}

TEST(PassManagerTest, ErrorsOnInvalidInputPlan) {
  Schema schema = MakeSchema();
  Plan plan;
  plan.commands.push_back(
      QueryCommand{"t0", RaExpr::TempScan("never_defined")});
  plan.output_table = "t0";
  SimpleCostFunction cost(&schema);
  EXPECT_FALSE(PassManager().Optimize(plan, schema, cost).ok());
}

// ---------------------------------------------------------------------------
// Seeded differential + property suite over redundancy-heavy random plans.

/// Builds random always-valid plans that are deliberately wasteful:
/// selections left above scans, shuffled join chains and binding joins
/// (what the passes clean up), mixed with shapes no proof plan has and the
/// passes must leave correct: cloned access commands, unread commands and
/// full-width inputs into keyed accesses.
class RedundantPlanBuilder {
 public:
  explicit RedundantPlanBuilder(uint64_t seed) : prng_(seed) {}

  void BuildSchema(Schema& schema) {
    const int num_relations = 2 + static_cast<int>(Pick(3));
    for (int r = 0; r < num_relations; ++r) {
      const int arity = 1 + static_cast<int>(Pick(3));
      arities_.push_back(arity);
      RelationId rel =
          schema.AddRelation("R" + std::to_string(r), arity).value();
      free_methods_.push_back(
          schema.AddAccessMethod("free" + std::to_string(r), rel, {}, 2.0)
              .value());
      if (arity >= 2) {
        const int key = static_cast<int>(Pick(arity));
        keyed_methods_.push_back(
            schema.AddAccessMethod("keyed" + std::to_string(r), rel, {key}, 5.0)
                .value());
        keyed_key_pos_.push_back(key);
        keyed_arity_.push_back(arity);
      }
    }
  }

  Instance BuildInstance(const Schema& schema) {
    Instance instance(&schema);
    const int domain = 4 + static_cast<int>(Pick(6));
    for (size_t r = 0; r < arities_.size(); ++r) {
      const int rows = 1 + static_cast<int>(Pick(20));
      for (int i = 0; i < rows; ++i) {
        Tuple fact;
        for (int c = 0; c < arities_[r]; ++c) {
          fact.push_back(Value::Int(static_cast<int64_t>(Pick(domain))));
        }
        instance.AddFact(static_cast<RelationId>(r), std::move(fact));
      }
    }
    return instance;
  }

  Plan BuildPlan() {
    Plan plan;
    // Free accesses, each cloned with probability 1/2.
    const int num_free = 1 + static_cast<int>(Pick(2));
    for (int i = 0; i < num_free; ++i) {
      const size_t m = Pick(free_methods_.size());
      AccessCommand access;
      access.method = free_methods_[m];
      access.output_table = NextTable();
      for (int p = 0; p < arities_[m]; ++p) {
        access.output_columns.emplace_back(Attr(m, p), p);
      }
      NoteTable(access.output_table, AttrsOf(access.output_columns));
      if (Coin(0.5)) {
        AccessCommand clone = access;
        clone.output_table = NextTable();
        NoteTable(clone.output_table, AttrsOf(clone.output_columns));
        plan.commands.push_back(std::move(clone));
      }
      plan.commands.push_back(std::move(access));
    }
    const int extra = 2 + static_cast<int>(Pick(4));
    for (int i = 0; i < extra; ++i) {
      switch (Pick(5)) {
        case 0: {  // selection left above a scan (pushdown bait)
          const std::string& table = tables_[Pick(tables_.size())];
          const std::vector<std::string>& attrs = table_attrs_[table];
          RaExpr::Condition cond = RaExpr::Condition::AttrEqConst(
              attrs[Pick(attrs.size())],
              Value::Int(static_cast<int64_t>(Pick(8))));
          QueryCommand query;
          query.output_table = NextTable();
          query.expr = RaExpr::Select(RaExpr::TempScan(table), {cond});
          NoteTable(query.output_table, attrs);
          plan.commands.push_back(std::move(query));
          break;
        }
        case 1: {  // keyed access fed the full table
          if (keyed_methods_.empty()) break;
          const size_t k = Pick(keyed_methods_.size());
          const std::string& table = tables_[Pick(tables_.size())];
          const std::vector<std::string>& attrs = table_attrs_[table];
          AccessCommand access;
          access.method = keyed_methods_[k];
          access.input = RaExpr::TempScan(table);
          access.input_binding = {{attrs[Pick(attrs.size())],
                                   keyed_key_pos_[k]}};
          access.output_table = NextTable();
          for (int p = 0; p < keyed_arity_[k]; ++p) {
            access.output_columns.emplace_back(
                "k" + std::to_string(next_table_) + "_" + std::to_string(p),
                p);
          }
          NoteTable(access.output_table, AttrsOf(access.output_columns));
          plan.commands.push_back(std::move(access));
          break;
        }
        case 2: {  // three-way join chain in arbitrary order (reorder bait)
          QueryCommand query;
          query.output_table = NextTable();
          const std::string& t0 = tables_[Pick(tables_.size())];
          const std::string& t1 = tables_[Pick(tables_.size())];
          const std::string& t2 = tables_[Pick(tables_.size())];
          query.expr = RaExpr::Join(
              RaExpr::Join(RaExpr::TempScan(t0), RaExpr::TempScan(t1)),
              RaExpr::TempScan(t2));
          std::vector<std::string> attrs = table_attrs_[t0];
          AppendNew(attrs, table_attrs_[t1]);
          AppendNew(attrs, table_attrs_[t2]);
          NoteTable(query.output_table, std::move(attrs));
          plan.commands.push_back(std::move(query));
          break;
        }
        case 3:
          AddBindingJoin(plan);
          break;
        default: {  // projection of a random table
          const std::string& table = tables_[Pick(tables_.size())];
          const std::vector<std::string>& attrs = table_attrs_[table];
          std::vector<std::string> kept;
          for (const std::string& a : attrs) {
            if (Coin(0.7)) kept.push_back(a);
          }
          if (kept.empty()) kept.push_back(attrs[Pick(attrs.size())]);
          QueryCommand query;
          query.output_table = NextTable();
          query.expr = RaExpr::Project(RaExpr::TempScan(table), kept);
          NoteTable(query.output_table, std::move(kept));
          plan.commands.push_back(std::move(query));
          break;
        }
      }
    }
    const std::string& out = tables_.back();
    const std::vector<std::string>& attrs = table_attrs_[out];
    std::vector<std::string> picked;
    for (const std::string& a : attrs) {
      if (Coin(0.8)) picked.push_back(a);
    }
    // A boolean output now and then (empty attribute list).
    if (picked.empty() && Coin(0.5)) picked.push_back(attrs[0]);
    plan.output_table = out;
    plan.output_attrs = std::move(picked);
    return plan;
  }

 private:
  size_t Pick(size_t n) { return static_cast<size_t>(prng_() % n); }
  bool Coin(double p) {
    return static_cast<double>(prng_() >> 11) * 0x1.0p-53 < p;
  }

  std::string NextTable() { return "t" + std::to_string(next_table_++); }

  /// A keyed access whose answers are joined back onto the table its
  /// bindings came from, the bound column named after its input attribute
  /// (binding-join bait), in either operand order and through an optional
  /// view. Some draws make the join one the optimizer must keep: a shared
  /// attribute the access does not bind, bindings read from another table,
  /// or a reader of the join's binding-table-only attributes (a projection,
  /// a join on them, a union). BuildPlan adds boolean outputs.
  void AddBindingJoin(Plan& plan) {
    if (keyed_methods_.empty()) return;
    const size_t k = Pick(keyed_methods_.size());
    const int key = keyed_key_pos_[k];
    const std::string left_table = tables_[Pick(tables_.size())];
    const std::vector<std::string> left = table_attrs_[left_table];
    const std::string bound = left[Pick(left.size())];

    std::string input_table = left_table;
    if (Coin(0.2)) {  // bindings from another table with the bound attribute
      for (const std::string& other : tables_) {
        const std::vector<std::string>& attrs = table_attrs_[other];
        if (other != left_table &&
            std::find(attrs.begin(), attrs.end(), bound) != attrs.end()) {
          input_table = other;
          break;
        }
      }
    }
    std::string unbound_shared;
    if (Coin(0.2)) {  // a non-key position named after an unbound attribute
      for (const std::string& attr : left) {
        if (attr != bound) unbound_shared = attr;
      }
    }

    AccessCommand access;
    access.method = keyed_methods_[k];
    access.input =
        Coin(0.5) ? RaExpr::TempScan(input_table)
                  : RaExpr::Project(RaExpr::TempScan(input_table), {bound});
    access.input_binding = {{bound, key}};
    access.output_table = NextTable();
    for (int p = 0; p < keyed_arity_[k]; ++p) {
      std::string name =
          "k" + std::to_string(next_table_) + "_" + std::to_string(p);
      if (p == key) {
        name = bound;
      } else if (!unbound_shared.empty()) {
        name = unbound_shared;
        unbound_shared.clear();
      }
      access.output_columns.emplace_back(std::move(name), p);
    }
    std::string answers = access.output_table;
    NoteTable(answers, AttrsOf(access.output_columns));
    plan.commands.push_back(std::move(access));
    if (Coin(0.5)) {  // a view of the answers: reordered, maybe filtered
      std::vector<std::string> attrs = table_attrs_[answers];
      std::reverse(attrs.begin(), attrs.end());
      RaExprPtr view = RaExpr::Project(RaExpr::TempScan(answers), attrs);
      if (Coin(0.3)) {
        view = RaExpr::Select(
            std::move(view), {RaExpr::Condition::AttrEqConst(
                                 attrs[Pick(attrs.size())],
                                 Value::Int(static_cast<int64_t>(Pick(8))))});
      }
      QueryCommand query{NextTable(), std::move(view)};
      NoteTable(query.output_table, std::move(attrs));
      answers = query.output_table;
      plan.commands.push_back(std::move(query));
    }

    const bool left_first = Coin(0.5);
    const std::string& first = left_first ? left_table : answers;
    const std::string& second = left_first ? answers : left_table;
    std::vector<std::string> joined = table_attrs_[first];
    AppendNew(joined, table_attrs_[second]);
    const std::vector<std::string>& right = table_attrs_[answers];
    std::vector<std::string> left_only;
    for (const std::string& attr : left) {
      if (std::find(right.begin(), right.end(), attr) == right.end()) {
        left_only.push_back(attr);
      }
    }
    QueryCommand join{NextTable(), RaExpr::Join(RaExpr::TempScan(first),
                                                RaExpr::TempScan(second))};
    const std::string table = join.output_table;
    NoteTable(table, joined);
    plan.commands.push_back(join);

    switch (Pick(4)) {
      case 0: {  // a projection reading a binding-table-only attribute
        if (left_only.empty()) break;
        const std::string attr = left_only[Pick(left_only.size())];
        QueryCommand query{NextTable(),
                           RaExpr::Project(RaExpr::TempScan(table), {attr})};
        NoteTable(query.output_table, {attr});
        plan.commands.push_back(std::move(query));
        break;
      }
      case 1: {  // a join keyed on a binding-table-only attribute
        if (left_only.empty()) break;
        const std::string attr = left_only[Pick(left_only.size())];
        std::string other;
        for (const std::string& candidate : tables_) {
          const std::vector<std::string>& attrs = table_attrs_[candidate];
          if (candidate != table && candidate != left_table &&
              std::find(attrs.begin(), attrs.end(), attr) != attrs.end()) {
            other = candidate;
            break;
          }
        }
        if (other.empty()) break;
        std::vector<std::string> out = joined;
        AppendNew(out, table_attrs_[other]);
        QueryCommand query{NextTable(), RaExpr::Join(RaExpr::TempScan(table),
                                                     RaExpr::TempScan(other))};
        NoteTable(query.output_table, std::move(out));
        plan.commands.push_back(std::move(query));
        break;
      }
      case 2: {  // a union with a second copy of the join
        QueryCommand copy{NextTable(), join.expr};
        NoteTable(copy.output_table, joined);
        QueryCommand query{NextTable(),
                           RaExpr::Union(RaExpr::TempScan(table),
                                         RaExpr::TempScan(copy.output_table))};
        NoteTable(query.output_table, joined);
        plan.commands.push_back(std::move(copy));
        plan.commands.push_back(std::move(query));
        break;
      }
      default:
        break;
    }
  }

  /// Attribute names are shared across relations ("c0", "c1", ...), so
  /// joins between different relations' outputs actually have join keys.
  static std::string Attr(size_t relation, int pos) {
    (void)relation;
    return "c" + std::to_string(pos);
  }

  static std::vector<std::string> AttrsOf(
      const std::vector<std::pair<std::string, int>>& cols) {
    std::vector<std::string> attrs;
    attrs.reserve(cols.size());
    for (const auto& [attr, pos] : cols) attrs.push_back(attr);
    return attrs;
  }

  static void AppendNew(std::vector<std::string>& attrs,
                        const std::vector<std::string>& more) {
    for (const std::string& a : more) {
      if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
        attrs.push_back(a);
      }
    }
  }

  void NoteTable(const std::string& name, std::vector<std::string> attrs) {
    if (table_attrs_.emplace(name, std::move(attrs)).second) {
      tables_.push_back(name);
    }
  }

  std::mt19937_64 prng_;
  int next_table_ = 0;
  std::vector<int> arities_;
  std::vector<AccessMethodId> free_methods_;
  std::vector<AccessMethodId> keyed_methods_;
  std::vector<int> keyed_key_pos_;
  std::vector<int> keyed_arity_;
  std::vector<std::string> tables_;
  std::unordered_map<std::string, std::vector<std::string>> table_attrs_;
};

TEST(PlanOptDifferentialTest, RandomRedundantPlansStayEquivalent) {
  const int iters = StressIters(30);
  for (int seed = 0; seed < iters; ++seed) {
    RedundantPlanBuilder builder(static_cast<uint64_t>(seed) * 271 + 7);
    Schema schema;
    builder.BuildSchema(schema);
    Instance instance = builder.BuildInstance(schema);
    Plan plan = builder.BuildPlan();
    ASSERT_TRUE(ValidatePlan(plan, schema).ok()) << "seed " << seed;

    // Alternate the active cost model: the no-regression guard must hold
    // under any monotone cost function, not just the simple one.
    SimpleCostFunction simple(&schema);
    CardinalityEstimates estimates;
    estimates.default_cardinality = 50;
    CardinalityCostFunction cardinality(&schema, estimates);
    const CostFunction& cost =
        seed % 2 == 0 ? static_cast<const CostFunction&>(simple) : cardinality;

    PassManager manager;
    OptimizeStats stats;
    auto optimized = manager.Optimize(plan, schema, cost, &stats);
    ASSERT_TRUE(optimized.ok()) << "seed " << seed << ": "
                                << optimized.status().message();

    // Cost monotonicity + validity: the PassManager contract.
    EXPECT_TRUE(ValidatePlan(*optimized, schema).ok()) << "seed " << seed;
    EXPECT_LE(stats.cost_after, stats.cost_before + 1e-9) << "seed " << seed;
    // No pass adds or removes a command.
    EXPECT_EQ(stats.commands_after, stats.commands_before) << "seed " << seed;
    // Under the simple model every pass is provably cost-neutral (none of
    // them adds or removes an access command), so the guard never fires.
    // Under the cardinality model a fold can raise the *estimate* (the
    // estimator scores Select selectivity, not position filters) and the
    // guard is expected to discard exactly those outputs — so rejections
    // are legitimate there and only validity/monotonicity is asserted.
    if (seed % 2 == 0) {
      for (const PassStats& pass : stats.passes) {
        EXPECT_EQ(pass.rejected, 0)
            << "seed " << seed << ": pass " << pass.pass
            << " produced an invalid or costlier plan";
      }
    }

    ExpectSameResults(plan, *optimized, schema, instance, seed);
  }
}

TEST(PlanOptDifferentialTest, ProofSearchPlansStayEquivalent) {
  struct Case {
    Result<Scenario> (*make)();
    int budget;
  };
  auto profinfo = [] { return MakeProfinfoScenario(false); };
  auto telephone = [] { return MakeTelephoneScenario(); };
  auto multisource = [] { return MakeMultiSourceScenario(3); };
  auto chain = [] { return MakeChainScenario(3); };
  auto views = [] { return MakeViewScenario(2); };
  const Case cases[] = {{+profinfo, 3},
                        {+telephone, 5},
                        {+multisource, 4},
                        {+chain, 4},
                        {+views, 3}};
  for (const Case& c : cases) {
    auto scenario = c.make();
    ASSERT_TRUE(scenario.ok());
    auto accessible = AccessibleSchema::Build(*scenario->schema,
                                              AccessibleVariant::kStandard);
    ASSERT_TRUE(accessible.ok());
    SimpleCostFunction cost(scenario->schema.get());
    ProofSearch search(&*accessible, &cost);

    SearchOptions options;
    options.max_access_commands = c.budget;
    auto literal = search.Run(scenario->query, options);
    options.optimize_plans = true;
    auto optimized = search.Run(scenario->query, options);
    ASSERT_TRUE(literal.ok() && optimized.ok()) << scenario->name;
    ASSERT_TRUE(literal->best.has_value()) << scenario->name;
    ASSERT_TRUE(optimized->best.has_value()) << scenario->name;
    EXPECT_TRUE(optimized->optimized) << scenario->name;
    EXPECT_LE(optimized->best->cost, literal->best->cost) << scenario->name;
    EXPECT_TRUE(
        ValidatePlan(optimized->best->plan, *scenario->schema).ok())
        << scenario->name;
    // One run of each pass leaves nothing for a second run.
    OptimizeStats again;
    auto twice = PassManager().Optimize(optimized->best->plan,
                                        *scenario->schema, cost, &again);
    ASSERT_TRUE(twice.ok()) << scenario->name;
    EXPECT_FALSE(again.changed) << scenario->name;

    GeneratorOptions gen;
    gen.facts_per_relation = 12;
    gen.seed = 7;
    auto instance = GenerateInstance(*scenario->schema, gen);
    ASSERT_TRUE(instance.ok()) << scenario->name;
    ExpectSameResults(literal->best->plan, optimized->best->plan,
                      *scenario->schema, *instance, /*seed=*/c.budget);
  }
}

TEST(PlanOptTest, SharedPassManagerIsThreadSafe) {
  // The serving path shares one const PassManager across workers; this is
  // the TSan target for that claim.
  const int iters = std::min(StressIters(8), 32);
  std::vector<Schema> schemas(iters);
  std::vector<Plan> plans;
  for (int i = 0; i < iters; ++i) {
    RedundantPlanBuilder builder(static_cast<uint64_t>(i) * 911 + 13);
    builder.BuildSchema(schemas[i]);
    plans.push_back(builder.BuildPlan());
  }
  PassManager manager;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < iters; ++i) {
          SimpleCostFunction cost(&schemas[i]);
          auto optimized = manager.Optimize(plans[i], schemas[i], cost);
          if (!optimized.ok() ||
              !ValidatePlan(*optimized, schemas[i]).ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      (void)t;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(PlanOptServiceTest, OptimizerStatsFlowThroughService) {
  auto scenario = MakeTelephoneScenario().value();
  auto accessible =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard)
          .value();
  SimpleCostFunction cost(scenario.schema.get());
  GeneratorOptions gen;
  gen.facts_per_relation = 10;
  auto instance = GenerateInstance(*scenario.schema, gen).value();

  ServiceOptions options;
  options.num_workers = 2;
  options.search.max_access_commands = 5;
  ASSERT_TRUE(options.search.optimize_plans);  // default on when serving
  QueryService service(
      &accessible, &cost,
      [&] { return std::make_unique<SimulatedSource>(scenario.schema.get(),
                                                     &instance); },
      options);

  QueryRequest request;
  request.query = scenario.query;
  QueryResponse first = service.Call(request);
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  ASSERT_NE(first.plan, nullptr);
  EXPECT_TRUE(ValidatePlan(first.plan->plan, *scenario.schema).ok());

  QueryResponse second = service.Call(request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);  // hits serve the pre-optimized plan

  ServiceStats stats = service.SnapshotStats();
  EXPECT_GE(stats.searches, 1u);
  // The optimizer only counts runs that changed the plan, and never more
  // than one per search.
  EXPECT_LE(stats.plans_optimized, stats.searches);
  service.Shutdown();
}

TEST(PlanOptServiceTest, ServiceHonoursTheSearchTemplate) {
  // ServiceOptions::search is the one home of the planner settings: the
  // service plans with it as given, optimizer switch included.
  auto scenario = MakeProfinfoScenario(/*boolean_query=*/false).value();
  auto accessible =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard)
          .value();
  SimpleCostFunction cost(scenario.schema.get());
  ProofSearch search(&accessible, &cost);
  SearchOptions direct;
  auto literal = search.Run(scenario.query, direct);
  direct.optimize_plans = true;
  auto optimized = search.Run(scenario.query, direct);
  ASSERT_TRUE(literal.ok() && optimized.ok());
  ASSERT_TRUE(literal->best.has_value() && optimized->best.has_value());
  // Precondition: the optimizer changes this query's plan.
  ASSERT_FALSE(literal->best->plan == optimized->best->plan);

  for (const bool optimize : {false, true}) {
    ServiceOptions options;
    options.num_workers = 1;
    if (!optimize) options.search.optimize_plans = false;
    QueryService service(&accessible, &cost, nullptr, options);
    QueryRequest request;
    request.query = scenario.query;
    request.execute = false;
    QueryResponse response = service.Call(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    ASSERT_NE(response.plan, nullptr);
    const Plan& expected =
        optimize ? optimized->best->plan : literal->best->plan;
    EXPECT_TRUE(response.plan->plan == expected)
        << "optimize_plans = " << optimize;
  }
}

}  // namespace
}  // namespace lcp
