#include "lcp/data/instance.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lcp/base/strings.h"
#include "lcp/data/generator.h"
#include "lcp/data/query_eval.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

Schema TwoRelationSchema() {
  Schema schema;
  schema.AddRelation("R", 2).value();
  schema.AddRelation("S", 1).value();
  return schema;
}

TEST(InstanceTest, InsertDeduplicates) {
  Schema schema = TwoRelationSchema();
  Instance instance(&schema);
  EXPECT_TRUE(instance.AddFact("R", {Value::Int(1), Value::Int(2)}).ok());
  EXPECT_TRUE(instance.AddFact("R", {Value::Int(1), Value::Int(2)}).ok());
  EXPECT_EQ(instance.relation(0).size(), 1u);
  EXPECT_TRUE(instance.relation(0).Contains({Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(instance.relation(0).Contains({Value::Int(2), Value::Int(1)}));
  EXPECT_EQ(instance.TotalFacts(), 1u);
}

TEST(InstanceTest, AddFactChecksArity) {
  Schema schema = TwoRelationSchema();
  Instance instance(&schema);
  EXPECT_FALSE(instance.AddFact("R", {Value::Int(1)}).ok());
  EXPECT_FALSE(instance.AddFact("T", {Value::Int(1)}).ok());
}

TEST(QueryEvalTest, JoinWithConstantsAndRepeats) {
  Schema schema = TwoRelationSchema();
  Instance instance(&schema);
  instance.AddFact(0, Tuple{Value::Int(1), Value::Int(1)});
  instance.AddFact(0, Tuple{Value::Int(1), Value::Int(2)});
  instance.AddFact(0, Tuple{Value::Int(2), Value::Int(3)});
  instance.AddFact(1, Tuple{Value::Int(2)});

  // Self-loop query R(x, x).
  auto loops = EvaluateQuery(*ParseQuery(schema, "Q(x) :- R(x, x)"),
                             instance);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0][0], Value::Int(1));

  // Join R(x, y), S(y).
  auto joined =
      EvaluateQuery(*ParseQuery(schema, "Q(x, y) :- R(x, y), S(y)"),
                    instance);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], (Tuple{Value::Int(1), Value::Int(2)}));

  // Constant selection.
  auto with_const =
      EvaluateQuery(*ParseQuery(schema, "Q(y) :- R(2, y)"), instance);
  ASSERT_EQ(with_const.size(), 1u);
  EXPECT_EQ(with_const[0][0], Value::Int(3));
}

TEST(QueryEvalTest, BooleanQueries) {
  Schema schema = TwoRelationSchema();
  Instance instance(&schema);
  auto q = *ParseQuery(schema, "Q() :- S(x)");
  EXPECT_TRUE(EvaluateQuery(q, instance).empty());
  instance.AddFact(1, Tuple{Value::Int(5)});
  auto result = EvaluateQuery(q, instance);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result[0].empty());
}

TEST(QueryEvalTest, AnswersAreDistinct) {
  Schema schema = TwoRelationSchema();
  Instance instance(&schema);
  instance.AddFact(0, Tuple{Value::Int(1), Value::Int(2)});
  instance.AddFact(0, Tuple{Value::Int(1), Value::Int(3)});
  auto result =
      EvaluateQuery(*ParseQuery(schema, "Q(x) :- R(x, y)"), instance);
  EXPECT_EQ(result.size(), 1u);
}

TEST(ConstraintCheckTest, DetectsViolationAndSatisfaction) {
  Schema schema = TwoRelationSchema();
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "R(x, y) -> S(y)")).ok());
  Instance instance(&schema);
  instance.AddFact(0, Tuple{Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(SatisfiesConstraints(instance));
  EXPECT_EQ(ViolatedConstraints(instance).size(), 1u);
  instance.AddFact(1, Tuple{Value::Int(2)});
  EXPECT_TRUE(SatisfiesConstraints(instance));
}

TEST(ConstraintCheckTest, ExistentialHeadWitness) {
  Schema schema;
  schema.AddRelation("R", 1).value();
  schema.AddRelation("S", 2).value();
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "R(x) -> S(x, y)")).ok());
  Instance instance(&schema);
  instance.AddFact(0, Tuple{Value::Int(1)});
  instance.AddFact(1, Tuple{Value::Int(1), Value::Int(99)});
  EXPECT_TRUE(SatisfiesConstraints(instance));
  instance.AddFact(0, Tuple{Value::Int(2)});
  EXPECT_FALSE(SatisfiesConstraints(instance));
}

TEST(GeneratorTest, RepairMakesConstraintsHold) {
  Schema schema;
  schema.AddRelation("A", 2).value();
  schema.AddRelation("B", 2).value();
  schema.AddRelation("C", 1).value();
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "A(x, y) -> B(y, z)")).ok());
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "B(x, y) -> C(x)")).ok());
  GeneratorOptions options;
  options.facts_per_relation = 15;
  options.domain_size = 10;
  options.seed = 7;
  auto instance = GenerateInstance(schema, options);
  ASSERT_TRUE(instance.ok()) << instance.status();
  EXPECT_TRUE(SatisfiesConstraints(*instance));
  // 15 random facts per relation minus duplicates, plus repair facts.
  EXPECT_GE(instance->TotalFacts(), 30u);
}

TEST(GeneratorTest, DeterministicWithSeed) {
  Schema schema = TwoRelationSchema();
  GeneratorOptions options;
  options.seed = 99;
  auto a = GenerateInstance(schema, options);
  auto b = GenerateInstance(schema, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->relation(0).tuples(), b->relation(0).tuples());
}

TEST(GeneratorTest, NonTerminatingRepairHitsCap) {
  // R(x, y) -> R(y, z) chases forever from any seed fact.
  Schema schema;
  schema.AddRelation("R", 2).value();
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "R(x, y) -> R(y, z)")).ok());
  GeneratorOptions options;
  options.facts_per_relation = 1;
  options.domain_size = 1000000;  // Make an R(v, v) self-loop implausible.
  options.max_repair_facts = 50;
  auto instance = GenerateInstance(schema, options);
  EXPECT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), StatusCode::kResourceExhausted);
}

/// The nested-loop repair the indexed one replaced: every head-witness
/// check scans the head relation with FindMatches. Kept as the reference
/// RepairInstance must reproduce tuple for tuple.
Status ReferenceRepair(Instance& instance, int max_new_facts) {
  int64_t next_value = 1000000000;
  auto head_satisfied = [&](const Tgd& tgd, const Binding& frontier) {
    bool satisfied = false;
    FindMatches(tgd.head, instance, frontier, [&](const Binding&) {
      satisfied = true;
      return false;
    });
    return satisfied;
  };
  int total_added = 0;
  while (true) {
    const int budget = max_new_facts - total_added;
    int added = 0;
    for (const Tgd& tgd : instance.schema().constraints()) {
      std::vector<Binding> violations;
      FindMatches(tgd.body, instance, Binding{}, [&](const Binding& binding) {
        Binding frontier;
        for (const std::string& v : tgd.FrontierVariables()) {
          frontier.emplace(v, binding.at(v));
        }
        if (!head_satisfied(tgd, frontier)) {
          violations.push_back(std::move(frontier));
        }
        return true;
      });
      for (Binding& frontier : violations) {
        if (added >= budget) break;
        if (head_satisfied(tgd, frontier)) continue;
        for (const std::string& v : tgd.ExistentialVariables()) {
          frontier.emplace(v, Value::Int(next_value++));
        }
        for (const Atom& atom : tgd.head) {
          Tuple tuple;
          for (const Term& t : atom.terms) {
            tuple.push_back(t.is_constant() ? t.constant()
                                            : frontier.at(t.var()));
          }
          if (instance.AddFact(atom.relation, std::move(tuple))) ++added;
        }
      }
      if (added >= budget) break;
    }
    total_added += added;
    if (added == 0) return Status::Ok();
    if (total_added >= max_new_facts) {
      return ResourceExhaustedError("reference repair hit its cap");
    }
  }
}

/// Heads with constants, repeated existential and frontier variables, an
/// empty frontier, and a multi-atom head (which keeps the FindMatches path).
Scenario HeadShapesScenario() {
  Scenario scenario;
  scenario.name = "head_shapes";
  scenario.schema = std::make_unique<Schema>();
  Schema& schema = *scenario.schema;
  schema.AddRelation("A", 2).value();
  schema.AddRelation("B", 3).value();
  schema.AddRelation("C", 4).value();
  schema.AddRelation("D", 2).value();
  schema.AddRelation("E", 2).value();
  schema.AddRelation("F", 1).value();
  for (const char* text :
       {"A(x, y) -> B(x, x, z)", "A(x, y) -> C(y, 3, z, z)",
        "B(x, y, z) -> D(x, w) & E(w, z)", "C(x, c, y, z) -> A(x, 3)",
        "D(x, y) -> F(z)", "E(x, y) -> B(y, \"k\", y)"}) {
    EXPECT_TRUE(schema.AddConstraint(ParseTgd(schema, text).value()).ok());
  }
  return scenario;
}

TEST(GeneratorTest, IndexedRepairMatchesNestedLoopReference) {
  std::vector<Scenario> scenarios;
  scenarios.push_back(MakeProfinfoScenario(false).value());
  scenarios.push_back(MakeTelephoneScenario().value());
  scenarios.push_back(MakeMultiSourceScenario(3).value());
  scenarios.push_back(MakeChainScenario(3).value());
  scenarios.push_back(MakeViewScenario(2).value());
  // Non-terminating: repair runs into max_repair_facts.
  scenarios.push_back(MakeCyclicGuardedScenario().value());
  scenarios.push_back(HeadShapesScenario());
  constexpr int kMaxRepairFacts = 400;
  int configurations = 0;
  int capped = 0;  // Cyclic guarded configurations stopped by the cap.
  for (const Scenario& scenario : scenarios) {
    for (int facts : {3, 12, 40}) {
      for (int domain : {4, 25}) {
        for (uint64_t seed : {1, 2, 3}) {
          GeneratorOptions options;
          options.facts_per_relation = facts;
          options.domain_size = domain;
          options.seed = seed;
          options.repair = false;
          Instance indexed = GenerateInstance(*scenario.schema, options).value();
          Instance reference = indexed;
          Status got = RepairInstance(indexed, kMaxRepairFacts);
          Status want = ReferenceRepair(reference, kMaxRepairFacts);
          const std::string where = StrCat(scenario.name, " facts=", facts,
                                           " domain=", domain, " seed=", seed);
          ASSERT_EQ(got.code(), want.code()) << where;
          for (RelationId r = 0; r < scenario.schema->num_relations(); ++r) {
            ASSERT_EQ(indexed.relation(r).tuples(),
                      reference.relation(r).tuples())
                << where << " relation " << scenario.schema->relation(r).name;
          }
          ++configurations;
          if (scenario.name == "cyclic_guarded" &&
              got.code() == StatusCode::kResourceExhausted) {
            ++capped;
          }
        }
      }
    }
  }
  EXPECT_EQ(configurations, 126);
  // Whenever its random facts leave a violation, the cyclic guarded
  // scenario chases until the cap stops it.
  EXPECT_GT(capped, 0);
}

}  // namespace
}  // namespace lcp
