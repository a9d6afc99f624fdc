// Static plan validation, the cardinality-aware cost model, and the
// invariant that every proof-generated plan passes validation.

#include <gtest/gtest.h>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/plan/cardinality_cost.h"
#include "lcp/plan/validate.h"
#include "lcp/planner/proof_search.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

Schema MakeSchema() {
  Schema schema;
  RelationId r = schema.AddRelation("R", 2).value();
  RelationId s = schema.AddRelation("S", 2).value();
  schema.AddAccessMethod("mt_r", r, {}).value();
  schema.AddAccessMethod("mt_s", s, {0}).value();
  return schema;
}

Plan GoodPlan() {
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
  return plan;
}

TEST(ValidatePlanTest, AcceptsWellFormedPlan) {
  Schema schema = MakeSchema();
  EXPECT_TRUE(ValidatePlan(GoodPlan(), schema).ok());
}

TEST(ValidatePlanTest, RejectsScanOfUndefinedTable) {
  Schema schema = MakeSchema();
  Plan plan = GoodPlan();
  std::get<QueryCommand>(plan.commands[2]).expr =
      RaExpr::TempScan("nonexistent");
  EXPECT_FALSE(ValidatePlan(plan, schema).ok());
}

TEST(ValidatePlanTest, RejectsUnboundMethodInput) {
  Schema schema = MakeSchema();
  Plan plan = GoodPlan();
  std::get<AccessCommand>(plan.commands[1]).input_binding.clear();
  EXPECT_FALSE(ValidatePlan(plan, schema).ok());
}

TEST(ValidatePlanTest, RejectsBadOutputColumn) {
  Schema schema = MakeSchema();
  Plan plan = GoodPlan();
  std::get<AccessCommand>(plan.commands[0]).output_columns = {{"a", 7}};
  EXPECT_FALSE(ValidatePlan(plan, schema).ok());
}

TEST(ValidatePlanTest, RejectsDuplicateOutputAttribute) {
  Schema schema = MakeSchema();
  Plan plan = GoodPlan();
  std::get<AccessCommand>(plan.commands[0]).output_columns = {{"a", 0},
                                                              {"a", 1}};
  EXPECT_FALSE(ValidatePlan(plan, schema).ok());
}

TEST(ValidatePlanTest, RejectsMissingOutputAttribute) {
  Schema schema = MakeSchema();
  Plan plan = GoodPlan();
  plan.output_attrs = {"zz"};
  EXPECT_FALSE(ValidatePlan(plan, schema).ok());
}

TEST(ValidatePlanTest, RejectsUnionOverMismatchedAttrs) {
  Schema schema = MakeSchema();
  Plan plan = GoodPlan();
  plan.commands.push_back(QueryCommand{
      "t3", RaExpr::Union(RaExpr::TempScan("t0"), RaExpr::TempScan("t1"))});
  plan.output_table = "t3";
  plan.output_attrs.clear();
  EXPECT_FALSE(ValidatePlan(plan, schema).ok());
}

// The next four rejections close the holes the plan-IR optimizer's per-pass
// validation relies on (DESIGN.md §11): with unique output tables and
// single-bound input positions, every temp-table reference is unambiguous.

TEST(ValidatePlanTest, RejectsDuplicateOutputTable) {
  Schema schema = MakeSchema();
  Plan plan = GoodPlan();
  // A second producer of "t0" with identical shape: redefinition was
  // silently last-wins before, now it is an error.
  plan.commands.insert(plan.commands.begin() + 1, plan.commands[0]);
  EXPECT_FALSE(ValidatePlan(plan, schema).ok());
}

TEST(ValidatePlanTest, RejectsDuplicateOutputTableAcrossCommandKinds) {
  Schema schema = MakeSchema();
  Plan plan = GoodPlan();
  std::get<QueryCommand>(plan.commands[2]).output_table = "t1";
  plan.output_table = "t1";
  plan.output_attrs = {"a", "c"};
  EXPECT_FALSE(ValidatePlan(plan, schema).ok());
}

TEST(ValidatePlanTest, RejectsInputPositionBoundTwice) {
  Schema schema = MakeSchema();
  Plan plan = GoodPlan();
  auto& access = std::get<AccessCommand>(plan.commands[1]);
  access.input = RaExpr::TempScan("t0");
  access.input_binding = {{"a", 0}, {"b", 0}};  // position 0 bound twice
  EXPECT_FALSE(ValidatePlan(plan, schema).ok());
}

TEST(ValidatePlanTest, RejectsPositionBoundByColumnAndConstant) {
  Schema schema = MakeSchema();
  Plan plan = GoodPlan();
  auto& access = std::get<AccessCommand>(plan.commands[1]);
  // The executor would silently let the constant shadow the column; the
  // validator now refuses the ambiguity outright.
  access.constant_inputs = {{0, Value::Int(7)}};
  EXPECT_FALSE(ValidatePlan(plan, schema).ok());
}

/// Every plan the proof search produces must pass static validation — on
/// every scenario, for every complete plan found.
TEST(ValidatePlanTest, AllProofGeneratedPlansValidate) {
  struct Case {
    Result<Scenario> (*make)();
    int budget;
  };
  auto profinfo = [] { return MakeProfinfoScenario(false); };
  auto telephone = [] { return MakeTelephoneScenario(); };
  auto multisource = [] { return MakeMultiSourceScenario(3); };
  auto chain = [] { return MakeChainScenario(3); };
  const Case cases[] = {{+profinfo, 3}, {+telephone, 5},
                        {+multisource, 4}, {+chain, 4}};
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
    options.keep_all_plans = true;
    options.prune_by_cost = false;
    auto outcome = search.Run(scenario->query, options);
    ASSERT_TRUE(outcome.ok());
    ASSERT_FALSE(outcome->all_plans.empty());
    for (const FoundPlan& found : outcome->all_plans) {
      EXPECT_TRUE(ValidatePlan(found.plan, *scenario->schema).ok())
          << scenario->name;
    }
  }
}

TEST(CardinalityCostTest, KeyedAccessCheaperThanScan) {
  Schema schema = MakeSchema();
  CardinalityEstimates estimates;
  estimates.cardinality[0] = 1000;  // R is big
  estimates.cardinality[1] = 1000;  // S is big
  CardinalityCostFunction cost(&schema, estimates);
  Plan plan = GoodPlan();
  // First access: 1 call; second: ~1000 estimated bindings from t0.
  double total = cost.Cost(plan);
  EXPECT_GT(total, 1000.0);
  auto tables = cost.EstimateTables(plan);
  EXPECT_DOUBLE_EQ(tables.at("t0"), 1000.0);
  // Keyed access returns at most one row per binding estimate.
  EXPECT_LE(tables.at("t1"), 1000.0);
}

TEST(CardinalityCostTest, MonotoneInAppendedAccessCommands) {
  Schema schema = MakeSchema();
  CardinalityCostFunction cost(&schema, CardinalityEstimates{});
  Plan plan;
  AccessCommand first;
  first.method = 0;
  first.output_table = "t0";
  first.output_columns = {{"a", 0}, {"b", 1}};
  plan.commands.push_back(first);
  plan.output_table = "t0";
  double one = cost.Cost(plan);
  AccessCommand second;
  second.method = 1;
  second.input = RaExpr::Project(RaExpr::TempScan("t0"), {"b"});
  second.input_binding = {{"b", 0}};
  second.output_table = "t1";
  second.output_columns = {{"c", 1}};
  plan.commands.push_back(second);
  double two = cost.Cost(plan);
  EXPECT_GT(two, one);
}

TEST(CardinalityCostTest, IntersectionShrinksEstimatedBindings) {
  // The Example 5 shape: joining two directory tables before the checking
  // access halves the estimated bindings (overlap 0.5).
  const double dir_costs[3] = {1.0, 1.0, 1.0};
  Scenario scenario =
      MakeMultiSourceScenario(3, dir_costs, /*profinfo_cost=*/10.0).value();
  auto accessible = AccessibleSchema::Build(*scenario.schema,
                                            AccessibleVariant::kStandard)
                        .value();
  CardinalityEstimates estimates;
  estimates.default_cardinality = 1000;
  estimates.join_overlap = 0.5;
  CardinalityCostFunction cardinality(scenario.schema.get(), estimates);
  ProofSearch search(&accessible, &cardinality);
  SearchOptions options;
  options.max_access_commands = 4;
  options.candidate_order = CandidateOrder::kFreeAccessFirst;
  auto outcome = search.Run(scenario.query, options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->best.has_value());
  // The winner uses more than one directory before the check.
  EXPECT_GT(outcome->best->plan.NumAccessCommands(), 2);

  // Under the simple cost model the single-directory plan wins instead.
  SimpleCostFunction simple(scenario.schema.get());
  ProofSearch simple_search(&accessible, &simple);
  auto simple_outcome = simple_search.Run(scenario.query, options);
  ASSERT_TRUE(simple_outcome.ok());
  EXPECT_EQ(simple_outcome->best->plan.NumAccessCommands(), 2);
}

TEST(CardinalityCostTest, DominanceKeepsTheOptimum) {
  // Two orders of the same accesses reach the same configuration at equal
  // prefix cost, but the cardinality model charges the later keyed access
  // by a join-size estimate that depends on the order. Dominance pruning
  // would keep only the first order and lose the optimum, so the search
  // must not apply it to a cost function that is not additive.
  Schema schema;
  RelationId r0 = schema.AddRelation("R0", 1).value();
  RelationId r1 = schema.AddRelation("R1", 1).value();
  RelationId r2 = schema.AddRelation("R2", 3).value();
  schema.AddAccessMethod("mt_r0", r0, {}, 3.0).value();
  schema.AddAccessMethod("mt_r1", r1, {0}, 2.0).value();
  schema.AddAccessMethod("mt_r2", r2, {}, 1.0).value();
  ASSERT_TRUE(
      schema.AddConstraint(*ParseTgd(schema, "R1(x) -> R2(x, z, x)")).ok());
  ConjunctiveQuery query =
      ParseQuery(schema, "Q(a, c) :- R0(a), R1(a), R2(a, b, c)").value();
  auto accessible =
      AccessibleSchema::Build(schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  CardinalityEstimates estimates;
  estimates.cardinality[r0] = 128;
  estimates.cardinality[r1] = 11;
  estimates.cardinality[r2] = 90;
  CardinalityCostFunction cost(&schema, estimates);
  EXPECT_FALSE(cost.IsAdditive());
  ProofSearch search(&*accessible, &cost);
  for (CandidateOrder order :
       {CandidateOrder::kDerivationDepth, CandidateOrder::kFreeAccessFirst}) {
    SearchOptions all_off;
    all_off.max_access_commands = 5;
    all_off.candidate_order = order;
    all_off.prune_by_cost = false;
    all_off.prune_by_dominance = false;
    auto reference = search.Run(query, all_off);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_TRUE(reference->best.has_value());
    EXPECT_DOUBLE_EQ(reference->best->cost, 29.5);

    SearchOptions defaults;
    defaults.max_access_commands = 5;
    defaults.candidate_order = order;
    auto outcome = search.Run(query, defaults);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(outcome->best.has_value());
    EXPECT_DOUBLE_EQ(outcome->best->cost, reference->best->cost);
    EXPECT_EQ(outcome->stats.pruned_dominance, 0);
  }
}

}  // namespace
}  // namespace lcp
