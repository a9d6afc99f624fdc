// Detailed proof-search behaviours: the §4 translation's deferred cases
// (schema constants as access inputs, repeated variables, several facts
// induced by one access), the Theorem 5 interpolation invariants, the
// search limits (depth budget, node cap, first-plan mode), and the
// signature filter of the dominance store.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/data/generator.h"
#include "lcp/data/query_eval.h"
#include "lcp/planner/dominance_store.h"
#include "lcp/planner/proof_search.h"
#include "lcp/planner/search_core.h"
#include "lcp/runtime/executor.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

std::set<Tuple> RunPlanRows(const Plan& plan, const Schema& schema,
                            const Instance& instance) {
  SimulatedSource source(&schema, &instance);
  auto result = ExecutePlan(plan, source);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::set<Tuple>(result->output.rows().begin(),
                         result->output.rows().end());
}

TEST(SearchDetailTest, SchemaConstantAsAccessInput) {
  // Profinfo(eid, onum, lname) with a method keyed on lname; the query pins
  // lname to the schema constant "smith", so the very first access can be
  // made with a constant input — no free relation needed at all.
  Schema schema;
  RelationId profinfo = schema.AddRelation("Profinfo", 3).value();
  schema.AddAccessMethod("mt_by_lname", profinfo, {2}).value();
  schema.AddConstant(Value::Str("smith"));
  ConjunctiveQuery query =
      ParseQuery(schema, "Q(eid) :- Profinfo(eid, onum, \"smith\")").value();
  auto accessible =
      AccessibleSchema::Build(schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  auto found = FindAnyPlan(*accessible, query, 2);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->plan.NumAccessCommands(), 1);
  // The access command carries the constant input.
  const auto* access = std::get_if<AccessCommand>(&found->plan.commands[0]);
  ASSERT_NE(access, nullptr);
  ASSERT_EQ(access->constant_inputs.size(), 1u);
  EXPECT_EQ(access->constant_inputs[0].second, Value::Str("smith"));

  Instance instance(&schema);
  instance.AddFact("Profinfo",
                   {Value::Int(1), Value::Int(11), Value::Str("smith")});
  instance.AddFact("Profinfo",
                   {Value::Int(2), Value::Int(22), Value::Str("jones")});
  EXPECT_EQ(RunPlanRows(found->plan, schema, instance),
            (std::set<Tuple>{{Value::Int(1)}}));
}

TEST(SearchDetailTest, RepeatedVariableInQueryAtom) {
  // Q(x) :- R(x, x): the exposed fact has a repeated chase constant, which
  // the translation turns into a position-equality selection.
  Schema schema;
  RelationId r = schema.AddRelation("R", 2).value();
  schema.AddAccessMethod("mt_r", r, {}).value();
  ConjunctiveQuery query = ParseQuery(schema, "Q(x) :- R(x, x)").value();
  auto accessible =
      AccessibleSchema::Build(schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  auto found = FindAnyPlan(*accessible, query, 2);
  ASSERT_TRUE(found.ok()) << found.status();

  Instance instance(&schema);
  instance.AddFact("R", {Value::Int(1), Value::Int(1)});
  instance.AddFact("R", {Value::Int(1), Value::Int(2)});
  instance.AddFact("R", {Value::Int(3), Value::Int(3)});
  EXPECT_EQ(RunPlanRows(found->plan, schema, instance),
            (std::set<Tuple>{{Value::Int(1)}, {Value::Int(3)}}));
}

TEST(SearchDetailTest, OneAccessExposesSeveralInducedFacts) {
  // Q(x, y) :- R(x), R(y): a single free access to R exposes both atoms;
  // the plan must produce the full cross product, via two renamed copies of
  // the same raw access table.
  Schema schema;
  RelationId r = schema.AddRelation("R", 1).value();
  schema.AddAccessMethod("mt_r", r, {}).value();
  ConjunctiveQuery query = ParseQuery(schema, "Q(x, y) :- R(x), R(y)").value();
  auto accessible =
      AccessibleSchema::Build(schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  auto found = FindAnyPlan(*accessible, query, 2);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->plan.NumAccessCommands(), 1);

  Instance instance(&schema);
  instance.AddFact("R", {Value::Int(1)});
  instance.AddFact("R", {Value::Int(2)});
  std::set<Tuple> expected;
  for (int a : {1, 2}) {
    for (int b : {1, 2}) {
      expected.insert({Value::Int(a), Value::Int(b)});
    }
  }
  EXPECT_EQ(RunPlanRows(found->plan, schema, instance), expected);
}

TEST(SearchDetailTest, Theorem5InterpolationInvariants) {
  // Theorem 5's proof invariants, checked empirically on Example 1:
  // (1) if Q(I) is non-empty then the plan's final table is non-empty;
  // (2) every plan output row is an actual answer of Q on I (containment
  //     in Accessed(F_j) instantiates to soundness of the output).
  Scenario scenario = MakeProfinfoScenario(false).value();
  auto accessible = AccessibleSchema::Build(*scenario.schema,
                                            AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  auto found = FindAnyPlan(*accessible, scenario.query, 3);
  ASSERT_TRUE(found.ok());

  for (uint64_t seed : {3u, 11u, 29u}) {
    GeneratorOptions options;
    options.seed = seed;
    options.facts_per_relation = 8;
    options.domain_size = 6;
    auto instance = GenerateInstance(*scenario.schema, options);
    ASSERT_TRUE(instance.ok());
    // Inject query-relevant facts so Q(I) is non-empty.
    ASSERT_TRUE(instance
                    ->AddFact("Profinfo",
                              {Value::Int(static_cast<int64_t>(seed)),
                               Value::Int(7), Value::Str("smith")})
                    .ok());
    ASSERT_TRUE(instance
                    ->AddFact("Udirect",
                              {Value::Int(static_cast<int64_t>(seed)),
                               Value::Str("smith")})
                    .ok());
    ASSERT_TRUE(RepairInstance(*instance, 10000).ok());
    ASSERT_TRUE(SatisfiesConstraints(*instance));

    std::vector<Tuple> oracle = EvaluateQuery(scenario.query, *instance);
    std::set<Tuple> oracle_set(oracle.begin(), oracle.end());
    std::set<Tuple> plan_rows =
        RunPlanRows(found->plan, *scenario.schema, *instance);
    ASSERT_FALSE(oracle_set.empty());
    EXPECT_FALSE(plan_rows.empty()) << "invariant (1), seed " << seed;
    for (const Tuple& row : plan_rows) {
      EXPECT_TRUE(oracle_set.count(row) > 0) << "invariant (2), seed " << seed;
    }
  }
}

TEST(SearchDetailTest, StopAtFirstPlanStopsEarly) {
  // Descending directory costs: the first plan found (cost 5) is not the
  // optimum (cost 2), so the exhaustive run has more to build after it.
  const double dir_costs[] = {4.0, 3.0, 2.0, 1.0};
  Scenario scenario =
      MakeMultiSourceScenario(4, dir_costs, /*profinfo_cost=*/1.0).value();
  auto accessible = AccessibleSchema::Build(*scenario.schema,
                                            AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  SimpleCostFunction cost(scenario.schema.get());
  ProofSearch search(&*accessible, &cost);
  SearchOptions first;
  first.max_access_commands = 5;
  first.stop_at_first_plan = true;
  auto one = search.Run(scenario.query, first);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(one->best.has_value());
  SearchOptions full = first;
  full.stop_at_first_plan = false;
  auto all = search.Run(scenario.query, full);
  ASSERT_TRUE(all.ok());
  EXPECT_LT(one->stats.nodes_created, all->stats.nodes_created);
  // The exhaustive run can only improve the cost.
  EXPECT_LE(all->best->cost, one->best->cost);
}

TEST(SearchDetailTest, NodeCapBoundsTheSearch) {
  Scenario scenario = MakeMultiSourceScenario(5).value();
  auto accessible = AccessibleSchema::Build(*scenario.schema,
                                            AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  SimpleCostFunction cost(scenario.schema.get());
  ProofSearch search(&*accessible, &cost);
  SearchOptions options;
  options.max_access_commands = 6;
  options.prune_by_cost = false;
  options.prune_by_dominance = false;
  options.max_nodes = 10;
  auto outcome = search.Run(scenario.query, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome->stats.nodes_created, 11);
}

TEST(SearchDetailTest, DepthBudgetLimitsPlans) {
  Scenario scenario = MakeChainScenario(3).value();
  auto accessible = AccessibleSchema::Build(*scenario.schema,
                                            AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  SimpleCostFunction cost(scenario.schema.get());
  ProofSearch search(&*accessible, &cost);
  SearchOptions options;
  options.max_access_commands = 2;  // Needs 4.
  auto outcome = search.Run(scenario.query, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->best.has_value());
  EXPECT_GT(outcome->stats.depth_limited, 0);
}

TEST(SearchDetailTest, ExplorationLogRecordsEveryNode) {
  Scenario scenario = MakeProfinfoScenario(false).value();
  auto accessible = AccessibleSchema::Build(*scenario.schema,
                                            AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  SimpleCostFunction cost(scenario.schema.get());
  ProofSearch search(&*accessible, &cost);
  SearchOptions options;
  options.max_access_commands = 3;
  options.collect_exploration_log = true;
  auto outcome = search.Run(scenario.query, options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GE(outcome->exploration_log.size(),
            static_cast<size_t>(outcome->stats.nodes_created));
  EXPECT_NE(outcome->exploration_log[0].find("root"), std::string::npos);
  bool has_success = false;
  for (const std::string& line : outcome->exploration_log) {
    if (line.find("SUCCESS") != std::string::npos) has_success = true;
  }
  EXPECT_TRUE(has_success);
}

TEST(SearchDetailTest, WrongVariantRejected) {
  Scenario scenario = MakeProfinfoScenario(false).value();
  auto accessible = AccessibleSchema::Build(*scenario.schema,
                                            AccessibleVariant::kBidirectional);
  ASSERT_TRUE(accessible.ok());
  SimpleCostFunction cost(scenario.schema.get());
  ProofSearch search(&*accessible, &cost);
  auto outcome = search.Run(scenario.query, SearchOptions{});
  EXPECT_FALSE(outcome.ok());
}


TEST(SearchDetailTest, SameChaseConstantAtTwoInputPositions) {
  // Pairs(a, b) behind a method requiring both positions; Q() :- Pairs(x, x)
  // with the value supplied by a free Keys table. The access command binds
  // the same chase constant to both input positions.
  Schema schema;
  RelationId pairs = schema.AddRelation("Pairs", 2).value();
  RelationId keys = schema.AddRelation("Keys", 1).value();
  schema.AddAccessMethod("mt_pairs", pairs, {0, 1}).value();
  schema.AddAccessMethod("mt_keys", keys, {}).value();
  ASSERT_TRUE(
      schema.AddConstraint(*ParseTgd(schema, "Pairs(a, b) -> Keys(a)")).ok());
  ConjunctiveQuery query = ParseQuery(schema, "Q() :- Pairs(x, x)").value();
  auto accessible =
      AccessibleSchema::Build(schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  auto found = FindAnyPlan(*accessible, query, 2);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->plan.NumAccessCommands(), 2);

  Instance with_loop(&schema);
  ASSERT_TRUE(
      with_loop.AddFact("Pairs", {Value::Int(3), Value::Int(3)}).ok());
  ASSERT_TRUE(with_loop.AddFact("Keys", {Value::Int(3)}).ok());
  ASSERT_TRUE(SatisfiesConstraints(with_loop));
  EXPECT_EQ(RunPlanRows(found->plan, schema, with_loop).size(), 1u);

  Instance no_loop(&schema);
  ASSERT_TRUE(no_loop.AddFact("Pairs", {Value::Int(3), Value::Int(4)}).ok());
  ASSERT_TRUE(no_loop.AddFact("Keys", {Value::Int(3)}).ok());
  ASSERT_TRUE(SatisfiesConstraints(no_loop));
  EXPECT_TRUE(RunPlanRows(found->plan, schema, no_loop).empty());
}


TEST(SearchDetailTest, CandidateOrderDoesNotChangeTheOptimum) {
  // §5 leaves the candidate-selection policy open; any policy must reach
  // the same optimal cost (it only changes the exploration order).
  struct Case {
    Result<Scenario> (*make)();
    int budget;
  };
  auto profinfo = [] { return MakeProfinfoScenario(false); };
  auto telephone = [] { return MakeTelephoneScenario(); };
  auto multisource = [] { return MakeMultiSourceScenario(3); };
  const Case cases[] = {{+profinfo, 3}, {+telephone, 5}, {+multisource, 4}};
  for (const Case& c : cases) {
    auto scenario = c.make();
    ASSERT_TRUE(scenario.ok());
    auto accessible = AccessibleSchema::Build(*scenario->schema,
                                              AccessibleVariant::kStandard);
    ASSERT_TRUE(accessible.ok());
    SimpleCostFunction cost(scenario->schema.get());
    ProofSearch search(&*accessible, &cost);
    double costs[2];
    int i = 0;
    for (CandidateOrder order : {CandidateOrder::kDerivationDepth,
                                 CandidateOrder::kFreeAccessFirst}) {
      SearchOptions options;
      options.max_access_commands = c.budget;
      options.candidate_order = order;
      auto outcome = search.Run(scenario->query, options);
      ASSERT_TRUE(outcome.ok());
      ASSERT_TRUE(outcome->best.has_value());
      costs[i++] = outcome->best->cost;
    }
    EXPECT_DOUBLE_EQ(costs[0], costs[1]) << scenario->name;
  }
}

TEST(DominanceStoreTest, SignatureFilterMatchesBruteForceScan) {
  using search_internal::DominanceSignature;
  using search_internal::DominanceStore;
  using search_internal::SearchCore;
  // Random configurations over the telephone schema's accessible copies:
  // each one extends a random earlier one, so many pairs are dominated
  // (sub-configurations) and many are not.
  Scenario scenario = MakeTelephoneScenario().value();
  auto accessible = AccessibleSchema::Build(*scenario.schema,
                                            AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  SimpleCostFunction cost(scenario.schema.get());
  SearchOptions options;
  search_internal::CompiledConstraints compiled(*accessible);
  SearchCore core(compiled, cost, scenario.query, options);
  ChaseEngine engine(&core.schema(), &core.arena());
  SearchStats stats;
  auto root = core.InitRoot(engine, stats);
  ASSERT_TRUE(root.ok()) << root.status();

  std::vector<ChaseTermId> terms;
  for (const FactRef fact : root->config.facts()) {
    terms.insert(terms.end(), fact.terms.begin(), fact.terms.end());
  }
  for (int i = 0; i < 4; ++i) terms.push_back(core.arena().NewNull("n", 1));
  terms.push_back(core.arena().InternConstant(Value::Int(7)));
  std::vector<RelationId> relations = {accessible->accessible_relation()};
  for (RelationId r = 0; r < scenario.schema->num_relations(); ++r) {
    relations.push_back(accessible->InferredOf(r));
    relations.push_back(accessible->AccessedOf(r));
  }

  struct Node {
    std::shared_ptr<ChaseConfig> config;
    DominanceSignature signature;
    double cost;
    int accesses;
  };
  constexpr int kNodes = 160;
  std::mt19937 rng(20261017);
  std::vector<Node> nodes;
  nodes.reserve(kNodes);  // `stored` points into it.
  std::vector<const Node*> stored;
  DominanceStore store;
  SearchCore::ProbeScratch scratch;
  int dominated = 0;
  int filtered_out = 0;
  for (int k = 0; k < kNodes; ++k) {
    auto config = std::make_shared<ChaseConfig>(
        nodes.empty() ? root->config : *nodes[rng() % nodes.size()].config);
    for (int added = 1 + static_cast<int>(rng() % 3); added > 0; --added) {
      RelationId r = relations[rng() % relations.size()];
      std::vector<ChaseTermId> args(
          accessible->schema().relation(r).arity);
      for (ChaseTermId& t : args) t = terms[rng() % terms.size()];
      config->Add(Fact(r, std::move(args)));
    }
    nodes.push_back(Node{config, core.SignatureOf(*config),
                         static_cast<double>(1 + rng() % 3),
                         1 + static_cast<int>(rng() % 3)});
    const Node& node = nodes.back();

    // Brute force: every stored entry the cost and access filters admit.
    const search_internal::DominanceProbe& probe =
        core.MakeDominanceProbe(*node.config, scratch);
    bool expected = false;
    for (const Node* entry : stored) {
      if (entry->cost > node.cost || entry->accesses > node.accesses) continue;
      const bool hom = HasHomomorphism(
          probe.pattern, *entry->config,
          std::vector<ChaseTermId>(probe.num_vars, kUnboundTerm));
      // The filter's premise: a dominator holds every probe feature.
      if (hom) {
        EXPECT_TRUE(node.signature.SubsetOf(entry->signature)) << k;
      }
      if (!node.signature.SubsetOf(entry->signature)) ++filtered_out;
      expected = expected || hom;
    }
    int probes_built = 0;
    const bool got = store.IsDominated(
        node.signature, node.cost, node.accesses,
        [&]() -> const search_internal::DominanceProbe& {
          ++probes_built;
          return core.MakeDominanceProbe(*node.config, scratch);
        });
    EXPECT_EQ(got, expected) << "config " << k;
    EXPECT_LE(probes_built, 1);
    if (got) ++dominated;
    if (rng() % 2 == 0) {
      store.Insert(node.signature, node.cost, node.accesses, node.config);
      stored.push_back(&node);
    }
  }
  EXPECT_EQ(store.size(), stored.size());
  // Both outcomes occur, and the signature filter skips real work.
  EXPECT_GT(dominated, 0);
  EXPECT_LT(dominated, kNodes);
  EXPECT_GT(filtered_out, 0);
}

}  // namespace
}  // namespace lcp
