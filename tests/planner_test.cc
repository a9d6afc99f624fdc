#include "lcp/planner/proof_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lcp/data/query_eval.h"
#include "lcp/runtime/executor.h"
#include "lcp/base/strings.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

/// Runs `plan` on `instance` and returns the output rows as a set of tuples.
std::set<Tuple> RunPlan(const Plan& plan, const Schema& schema,
                        const Instance& instance) {
  SimulatedSource source(&schema, &instance);
  auto result = ExecutePlan(plan, source);
  EXPECT_TRUE(result.ok()) << result.status();
  std::set<Tuple> rows(result->output.rows().begin(),
                       result->output.rows().end());
  return rows;
}

std::set<Tuple> OracleRows(const ConjunctiveQuery& query,
                           const Instance& instance) {
  std::vector<Tuple> rows = EvaluateQuery(query, instance);
  return std::set<Tuple>(rows.begin(), rows.end());
}

TEST(ProofSearchTest, Example1FindsPlanAndAnswersCompletely) {
  auto scenario = MakeProfinfoScenario(/*boolean_query=*/false);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto accessible =
      AccessibleSchema::Build(*scenario->schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();

  SimpleCostFunction cost(scenario->schema.get());
  ProofSearch search(&*accessible, &cost);
  SearchOptions options;
  options.max_access_commands = 3;
  options.collect_exploration_log = true;
  auto outcome = search.Run(scenario->query, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->best.has_value())
      << "no plan found; log:\n"
      << StrJoin(outcome->exploration_log, "\n");

  const Plan& plan = outcome->best->plan;
  // The paper's plan: free access to Udirect, then a checking access to
  // Profinfo — two access commands.
  EXPECT_EQ(plan.NumAccessCommands(), 2);
  EXPECT_EQ(plan.Language(), PlanLanguage::kSpj);
  EXPECT_DOUBLE_EQ(outcome->best->cost, 2.0);

  // Execute against a concrete instance and compare with the oracle.
  Instance instance(scenario->schema.get());
  ASSERT_TRUE(instance
                  .AddFact("Profinfo", {Value::Int(1), Value::Int(101),
                                        Value::Str("smith")})
                  .ok());
  ASSERT_TRUE(instance
                  .AddFact("Profinfo", {Value::Int(2), Value::Int(102),
                                        Value::Str("jones")})
                  .ok());
  ASSERT_TRUE(instance
                  .AddFact("Profinfo", {Value::Int(4), Value::Int(104),
                                        Value::Str("smith")})
                  .ok());
  ASSERT_TRUE(
      instance.AddFact("Udirect", {Value::Int(1), Value::Str("smith")}).ok());
  ASSERT_TRUE(
      instance.AddFact("Udirect", {Value::Int(2), Value::Str("jones")}).ok());
  ASSERT_TRUE(
      instance.AddFact("Udirect", {Value::Int(3), Value::Str("smith")}).ok());
  ASSERT_TRUE(
      instance.AddFact("Udirect", {Value::Int(4), Value::Str("smith")}).ok());
  ASSERT_TRUE(SatisfiesConstraints(instance));

  EXPECT_EQ(RunPlan(plan, *scenario->schema, instance),
            OracleRows(scenario->query, instance));
}

TEST(ProofSearchTest, Example4BooleanQuery) {
  auto scenario = MakeProfinfoScenario(/*boolean_query=*/true);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto accessible =
      AccessibleSchema::Build(*scenario->schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();

  auto found = FindAnyPlan(*accessible, scenario->query, 3);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->plan.NumAccessCommands(), 2);

  // Non-empty instance: the boolean plan must report non-empty.
  Instance instance(scenario->schema.get());
  ASSERT_TRUE(instance
                  .AddFact("Profinfo", {Value::Int(1), Value::Int(101),
                                        Value::Str("smith")})
                  .ok());
  ASSERT_TRUE(
      instance.AddFact("Udirect", {Value::Int(1), Value::Str("smith")}).ok());
  EXPECT_EQ(RunPlan(found->plan, *scenario->schema, instance).size(), 1u);

  // Empty instance: must report empty.
  Instance empty(scenario->schema.get());
  EXPECT_TRUE(RunPlan(found->plan, *scenario->schema, empty).empty());
}

TEST(ProofSearchTest, Example2TelephoneDirectories) {
  auto scenario = MakeTelephoneScenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto accessible =
      AccessibleSchema::Build(*scenario->schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();

  auto found = FindAnyPlan(*accessible, scenario->query, 5);
  ASSERT_TRUE(found.ok()) << found.status();
  // The paper's plan: Ids, Names, Direct1, Direct2 — four accesses.
  EXPECT_EQ(found->plan.NumAccessCommands(), 4);

  // Build an instance satisfying the constraints and check completeness.
  Instance instance(scenario->schema.get());
  auto add_pair = [&](int64_t uname, int64_t addr, int64_t uid,
                      int64_t phone) {
    ASSERT_TRUE(instance
                    .AddFact("Direct1", {Value::Int(uname), Value::Int(addr),
                                         Value::Int(uid)})
                    .ok());
    ASSERT_TRUE(instance
                    .AddFact("Direct2", {Value::Int(uname), Value::Int(addr),
                                         Value::Int(phone)})
                    .ok());
    ASSERT_TRUE(instance.AddFact("Ids", {Value::Int(uid)}).ok());
    ASSERT_TRUE(instance.AddFact("Names", {Value::Int(uname)}).ok());
  };
  add_pair(10, 20, 30, 5551234);
  add_pair(11, 21, 31, 5555678);
  add_pair(12, 22, 32, 5559999);
  ASSERT_TRUE(SatisfiesConstraints(instance));

  EXPECT_EQ(RunPlan(found->plan, *scenario->schema, instance),
            OracleRows(scenario->query, instance));
}

TEST(ProofSearchTest, UnanswerableQueryFindsNoPlan) {
  // Profinfo requires an eid input and nothing reveals eids: no plan.
  Schema schema;
  auto profinfo = schema.AddRelation("Profinfo", 3);
  ASSERT_TRUE(profinfo.ok());
  ASSERT_TRUE(
      schema.AddAccessMethod("mt_profinfo", *profinfo, {0}).ok());
  ConjunctiveQuery query;
  query.name = "Q";
  query.atoms.push_back(
      Atom(*profinfo, {Term::Var("e"), Term::Var("o"), Term::Var("l")}));
  auto accessible =
      AccessibleSchema::Build(schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  auto found = FindAnyPlan(*accessible, query, 5);
  EXPECT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), StatusCode::kNotFound);
}

TEST(ProofSearchTest, Example5CostGuidedSearchFindsCheapestSource) {
  // Three directory sources with different access costs. The cheapest
  // complete plan accesses only the cheapest directory (Udirect2, cost 1)
  // and then checks Profinfo (cost 1).
  const double costs[] = {5.0, 1.0, 3.0};
  auto scenario = MakeMultiSourceScenario(3, costs, /*profinfo_cost=*/1.0);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto accessible =
      AccessibleSchema::Build(*scenario->schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();

  SimpleCostFunction cost(scenario->schema.get());
  ProofSearch search(&*accessible, &cost);
  SearchOptions options;
  options.max_access_commands = 4;
  options.keep_all_plans = true;
  auto outcome = search.Run(scenario->query, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->best.has_value());
  EXPECT_DOUBLE_EQ(outcome->best->cost, 2.0);
  EXPECT_EQ(outcome->best->plan.NumAccessCommands(), 2);
  // The cheapest plan's first access must use the cheapest directory.
  const auto* first =
      std::get_if<AccessCommand>(&outcome->best->plan.commands[0]);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(scenario->schema->access_method(first->method).name,
            "mt_udirect2");
  // Multiple distinct complete plans exist (different sources and source
  // combinations).
  EXPECT_GE(outcome->all_plans.size(), 2u);
}

TEST(ProofSearchTest, Example5Figure1ExplorationWithPaperHeuristic) {
  // With unit costs and the "free accesses first" heuristic, the first
  // complete proof found is Figure 1's n4: all three directories exposed,
  // then the checking access (the intersection plan, cost 4).
  auto scenario = MakeMultiSourceScenario(3);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto accessible =
      AccessibleSchema::Build(*scenario->schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();

  SimpleCostFunction cost(scenario->schema.get());
  ProofSearch search(&*accessible, &cost);
  SearchOptions options;
  options.max_access_commands = 4;
  options.candidate_order = CandidateOrder::kFreeAccessFirst;
  options.stop_at_first_plan = true;
  auto first = search.Run(scenario->query, options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->best.has_value());
  EXPECT_EQ(first->best->plan.NumAccessCommands(), 4);
  EXPECT_DOUBLE_EQ(first->best->cost, 4.0);

  // Exhausting the space then finds the cheaper single-directory plan
  // (cost 2), and dominance pruning kills the reordered duplicate
  // configurations (the paper's n''' node). Cost pruning is disabled here
  // so the reordered nodes are actually reached (with unit costs they would
  // otherwise be cut by the cost bound first).
  SearchOptions full = options;
  full.stop_at_first_plan = false;
  full.prune_by_cost = false;
  auto outcome = search.Run(scenario->query, full);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->best.has_value());
  EXPECT_DOUBLE_EQ(outcome->best->cost, 2.0);
  EXPECT_GT(outcome->stats.pruned_dominance, 0);
}

/// The listing of the best plan for `scenario` under the simple cost, run
/// through the plan-IR optimizer if `optimize`.
std::string BestPlanText(const Scenario& scenario, int max_access_commands,
                         bool optimize = false) {
  auto accessible =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard);
  EXPECT_TRUE(accessible.ok()) << accessible.status();
  if (!accessible.ok()) return "";
  SimpleCostFunction cost(scenario.schema.get());
  ProofSearch search(&*accessible, &cost);
  SearchOptions options;
  options.max_access_commands = max_access_commands;
  options.optimize_plans = optimize;
  auto outcome = search.Run(scenario.query, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  if (!outcome.ok() || !outcome->best.has_value()) return "";
  return outcome->best->plan.ToString(*scenario.schema);
}

TEST(ProofSearchTest, BestPlanTextIsPinned) {
  // The §4 translation's exact output for the best plans of Examples 1, 2
  // and 5. Table names carry node ids, so this also pins the search order.
  auto profinfo = MakeProfinfoScenario(/*boolean_query=*/false);
  ASSERT_TRUE(profinfo.ok()) << profinfo.status();
  EXPECT_EQ(BestPlanText(*profinfo, 3),
            "t1_raw <- mt_udirect <- {} out(#p0:0,#p1:1)\n"
            "t1_f0 := project[eid_0](rename[#p0->eid_0](select[#p1=\"smith\"](scan(t1_raw))))\n"
            "t1 := scan(t1_f0)\n"
            "t2_raw <- mt_profinfo <- project[eid_0](scan(t1)) out(#p0:0,#p1:1,#p2:2)\n"
            "t2_f0 := project[eid_0,onum_1](rename[#p0->eid_0,#p1->onum_1](select[#p2=\"smith\"](scan(t2_raw))))\n"
            "t2 := (scan(t1) join scan(t2_f0))\n"
            "t2_out := project[eid_0](scan(t2))\n"
            "output: t2_out[eid_0]\n");

  auto telephone = MakeTelephoneScenario();
  ASSERT_TRUE(telephone.ok()) << telephone.status();
  EXPECT_EQ(BestPlanText(*telephone, 5),
            "t1_raw <- mt_names <- {} out(#p0:0)\n"
            "t1_f0 := project[uname_1](rename[#p0->uname_1](scan(t1_raw)))\n"
            "t1 := scan(t1_f0)\n"
            "t2_raw <- mt_ids <- {} out(#p0:0)\n"
            "t2_f0 := project[i_3](rename[#p0->i_3](scan(t2_raw)))\n"
            "t2 := (scan(t1) join scan(t2_f0))\n"
            "t3_raw <- mt_direct1 <- project[uname_1,i_3](scan(t2)) out(#p0:0,#p1:1,#p2:2)\n"
            "t3_f0 := project[uname_1,addr_2,i_3](rename[#p0->uname_1,#p1->addr_2,#p2->i_3](scan(t3_raw)))\n"
            "t3 := (scan(t2) join scan(t3_f0))\n"
            "t4_raw <- mt_direct2 <- project[uname_1,addr_2](scan(t3)) out(#p0:0,#p1:1,#p2:2)\n"
            "t4_f0 := project[uname_1,addr_2,phone_0](rename[#p0->uname_1,#p1->addr_2,#p2->phone_0](scan(t4_raw)))\n"
            "t4 := (scan(t3) join scan(t4_f0))\n"
            "t4_out := project[phone_0](scan(t4))\n"
            "output: t4_out[phone_0]\n");

  const double costs[] = {5.0, 1.0, 3.0};
  auto multi = MakeMultiSourceScenario(3, costs, /*profinfo_cost=*/1.0);
  ASSERT_TRUE(multi.ok()) << multi.status();
  EXPECT_EQ(BestPlanText(*multi, 4),
            "t3_raw <- mt_udirect2 <- {} out(#p0:0,#p1:1)\n"
            "t3_f0 := project[eid_0,lname_2](rename[#p0->eid_0,#p1->lname_2](scan(t3_raw)))\n"
            "t3 := scan(t3_f0)\n"
            "t4_raw <- mt_profinfo <- project[eid_0,lname_2](scan(t3)) out(#p0:0,#p1:1,#p2:2)\n"
            "t4_f0 := project[eid_0,onum_1,lname_2](rename[#p0->eid_0,#p1->onum_1,#p2->lname_2](scan(t4_raw)))\n"
            "t4 := (scan(t3) join scan(t4_f0))\n"
            "output: t4\n");
}

TEST(ProofSearchTest, OptimizedPlanTextIsPinned) {
  // The served form of the plans above: the selection fold moves each
  // access's constant filter into the access, and binding-join elimination
  // turns every join of an access's answers back onto its binding table
  // into a scan of the answers. The one join left (t2 in Example 2) shares
  // no attribute with an input the access binds.
  auto profinfo = MakeProfinfoScenario(/*boolean_query=*/false);
  ASSERT_TRUE(profinfo.ok()) << profinfo.status();
  EXPECT_EQ(BestPlanText(*profinfo, 3, /*optimize=*/true),
            "t1_raw <- mt_udirect <- {} where pos1=\"smith\" out(#p0:0,#p1:1)\n"
            "t1_f0 := project[eid_0](rename[#p0->eid_0](scan(t1_raw)))\n"
            "t1 := scan(t1_f0)\n"
            "t2_raw <- mt_profinfo <- project[eid_0](scan(t1)) where pos2=\"smith\" out(#p0:0,#p1:1,#p2:2)\n"
            "t2_f0 := project[eid_0,onum_1](rename[#p0->eid_0,#p1->onum_1](scan(t2_raw)))\n"
            "t2 := scan(t2_f0)\n"
            "t2_out := project[eid_0](scan(t2))\n"
            "output: t2_out[eid_0]\n");

  auto telephone = MakeTelephoneScenario();
  ASSERT_TRUE(telephone.ok()) << telephone.status();
  EXPECT_EQ(BestPlanText(*telephone, 5, /*optimize=*/true),
            "t1_raw <- mt_names <- {} out(#p0:0)\n"
            "t1_f0 := project[uname_1](rename[#p0->uname_1](scan(t1_raw)))\n"
            "t1 := scan(t1_f0)\n"
            "t2_raw <- mt_ids <- {} out(#p0:0)\n"
            "t2_f0 := project[i_3](rename[#p0->i_3](scan(t2_raw)))\n"
            "t2 := (scan(t1) join scan(t2_f0))\n"
            "t3_raw <- mt_direct1 <- project[uname_1,i_3](scan(t2)) out(#p0:0,#p1:1,#p2:2)\n"
            "t3_f0 := project[uname_1,addr_2,i_3](rename[#p0->uname_1,#p1->addr_2,#p2->i_3](scan(t3_raw)))\n"
            "t3 := scan(t3_f0)\n"
            "t4_raw <- mt_direct2 <- project[uname_1,addr_2](scan(t3)) out(#p0:0,#p1:1,#p2:2)\n"
            "t4_f0 := project[uname_1,addr_2,phone_0](rename[#p0->uname_1,#p1->addr_2,#p2->phone_0](scan(t4_raw)))\n"
            "t4 := scan(t4_f0)\n"
            "t4_out := project[phone_0](scan(t4))\n"
            "output: t4_out[phone_0]\n");

  const double costs[] = {5.0, 1.0, 3.0};
  auto multi = MakeMultiSourceScenario(3, costs, /*profinfo_cost=*/1.0);
  ASSERT_TRUE(multi.ok()) << multi.status();
  EXPECT_EQ(BestPlanText(*multi, 4, /*optimize=*/true),
            "t3_raw <- mt_udirect2 <- {} out(#p0:0,#p1:1)\n"
            "t3_f0 := project[eid_0,lname_2](rename[#p0->eid_0,#p1->lname_2](scan(t3_raw)))\n"
            "t3 := scan(t3_f0)\n"
            "t4_raw <- mt_profinfo <- project[eid_0,lname_2](scan(t3)) out(#p0:0,#p1:1,#p2:2)\n"
            "t4_f0 := project[eid_0,onum_1,lname_2](rename[#p0->eid_0,#p1->onum_1,#p2->lname_2](scan(t4_raw)))\n"
            "t4 := scan(t4_f0)\n"
            "output: t4\n");

  auto chain = MakeChainScenario(4);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_EQ(BestPlanText(*chain, 5, /*optimize=*/true),
            "t1_raw <- mt_R4 <- {} out(#p0:0,#p1:1)\n"
            "t1_f0 := project[c_4,c_5](rename[#p0->c_4,#p1->c_5](scan(t1_raw)))\n"
            "t1 := scan(t1_f0)\n"
            "t2_raw <- mt_R3 <- project[c_4](scan(t1)) out(#p0:0,#p1:1)\n"
            "t2_f0 := project[c_3,c_4](rename[#p0->c_3,#p1->c_4](scan(t2_raw)))\n"
            "t2 := scan(t2_f0)\n"
            "t3_raw <- mt_R2 <- project[c_3](scan(t2)) out(#p0:0,#p1:1)\n"
            "t3_f0 := project[c_2,c_3](rename[#p0->c_2,#p1->c_3](scan(t3_raw)))\n"
            "t3 := scan(t3_f0)\n"
            "t4_raw <- mt_R1 <- project[c_2](scan(t3)) out(#p0:0,#p1:1)\n"
            "t4_f0 := project[b_1,c_2](rename[#p0->b_1,#p1->c_2](scan(t4_raw)))\n"
            "t4 := scan(t4_f0)\n"
            "t5_raw <- mt_R0 <- project[b_1](scan(t4)) out(#p0:0,#p1:1)\n"
            "t5_f0 := project[a_0,b_1](rename[#p0->a_0,#p1->b_1](scan(t5_raw)))\n"
            "t5 := scan(t5_f0)\n"
            "t5_out := project[a_0](scan(t5))\n"
            "output: t5_out[a_0]\n");
}

TEST(ProofSearchTest, ChainScenarioNeedsChainLengthPlusOneAccesses) {
  for (int len = 1; len <= 3; ++len) {
    auto scenario = MakeChainScenario(len);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    auto accessible = AccessibleSchema::Build(*scenario->schema,
                                              AccessibleVariant::kStandard);
    ASSERT_TRUE(accessible.ok()) << accessible.status();
    // Too small a budget: no plan.
    EXPECT_FALSE(FindAnyPlan(*accessible, scenario->query, len).ok())
        << "chain length " << len;
    // Exactly enough: a plan with len + 1 accesses.
    auto found = FindAnyPlan(*accessible, scenario->query, len + 1);
    ASSERT_TRUE(found.ok()) << found.status() << " (chain length " << len
                            << ")";
    EXPECT_EQ(found->plan.NumAccessCommands(), len + 1);
  }
}

TEST(ProofSearchTest, ViewScenarioRewritesOverViews) {
  auto scenario = MakeViewScenario(2);  // B0..B3, views V0, V1.
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto accessible =
      AccessibleSchema::Build(*scenario->schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();
  auto found = FindAnyPlan(*accessible, scenario->query, 3);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->plan.NumAccessCommands(), 2);

  // Execute on a small instance: the path join must be answered exactly.
  Instance instance(scenario->schema.get());
  // Path 1 -> 2 -> 3 -> 4 -> 5 plus a distractor edge.
  ASSERT_TRUE(instance.AddFact("B0", {Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(instance.AddFact("B1", {Value::Int(2), Value::Int(3)}).ok());
  ASSERT_TRUE(instance.AddFact("B2", {Value::Int(3), Value::Int(4)}).ok());
  ASSERT_TRUE(instance.AddFact("B3", {Value::Int(4), Value::Int(5)}).ok());
  ASSERT_TRUE(instance.AddFact("B2", {Value::Int(30), Value::Int(40)}).ok());
  ASSERT_TRUE(instance.AddFact("V0", {Value::Int(1), Value::Int(3)}).ok());
  ASSERT_TRUE(instance.AddFact("V1", {Value::Int(3), Value::Int(5)}).ok());
  // Satisfy the backward view constraints for the distractor B2 edge: B3
  // continuation plus view tuple.
  ASSERT_TRUE(instance.AddFact("B3", {Value::Int(40), Value::Int(50)}).ok());
  ASSERT_TRUE(instance.AddFact("V1", {Value::Int(30), Value::Int(50)}).ok());
  ASSERT_TRUE(SatisfiesConstraints(instance))
      << StrJoin(ViolatedConstraints(instance), ", ");

  EXPECT_EQ(RunPlan(found->plan, *scenario->schema, instance),
            OracleRows(scenario->query, instance));
}

TEST(ProofSearchTest, ConstraintConstantsServeConcurrentSearches) {
  // Dir has no access, and Dir(e) <-> Emp(e, "sales"): the only plan for
  // Dir needs both constraints, whose constant "sales" is compiled once per
  // ProofSearch into the base arena every search's arena layers over. Q1
  // mentions the constant only through the constraints; Q2 shares it with
  // the query, which makes it accessible and the cheap by-department
  // access usable.
  Schema schema;
  const RelationId emp = schema.AddRelation("Emp", 2).value();
  const RelationId dir = schema.AddRelation("Dir", 1).value();
  schema.AddAccessMethod("mt_emp", emp, {}, 3.0).value();
  schema.AddAccessMethod("mt_emp_by_dept", emp, {1}, 1.0).value();
  ASSERT_TRUE(
      schema.AddConstraint(*ParseTgd(schema, "Dir(e) -> Emp(e, \"sales\")"))
          .ok());
  ASSERT_TRUE(
      schema.AddConstraint(*ParseTgd(schema, "Emp(e, \"sales\") -> Dir(e)"))
          .ok());
  auto accessible = AccessibleSchema::Build(schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();
  SimpleCostFunction cost(&schema);
  const ProofSearch search(&*accessible, &cost);
  const std::vector<ConjunctiveQuery> queries = {
      ParseQuery(schema, "Q1(x) :- Dir(x)").value(),
      ParseQuery(schema, "Q2(x) :- Dir(x), Emp(x, \"sales\")").value()};

  Instance instance(&schema);
  for (int e = 1; e <= 4; ++e) {
    const bool sales = e % 2 == 1;
    instance.AddFact(emp, Tuple{Value::Int(e), Value::Str(sales ? "sales" : "hr")});
    if (sales) instance.AddFact(dir, Tuple{Value::Int(e)});
  }
  ASSERT_TRUE(SatisfiesConstraints(instance))
      << StrJoin(ViolatedConstraints(instance), ", ");

  const SearchOptions options;
  std::vector<std::string> expected;
  for (const ConjunctiveQuery& query : queries) {
    auto outcome = search.Run(query, options);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(outcome->best.has_value()) << query.name;
    const Plan& plan = outcome->best->plan;
    EXPECT_NE(plan.ToString(schema).find("\"sales\""), std::string::npos)
        << plan.ToString(schema);
    EXPECT_EQ(RunPlan(plan, schema, instance), OracleRows(query, instance))
        << query.name;
    expected.push_back(StrCat(outcome->best->cost, "\n", plan.ToString(schema)));
  }
  EXPECT_EQ(expected[0].substr(0, 2), "3\n") << expected[0];
  EXPECT_EQ(expected[1].substr(0, 2), "1\n") << expected[1];

  // Four threads share the one ProofSearch and find the same plans.
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto outcome = search.Run(queries[q], options);
          if (!outcome.ok() || !outcome->best.has_value() ||
              StrCat(outcome->best->cost, "\n",
                     outcome->best->plan.ToString(schema)) != expected[q]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace lcp
