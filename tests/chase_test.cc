#include "lcp/chase/engine.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "lcp/chase/matcher.h"
#include "lcp/schema/parser.h"

namespace lcp {
namespace {

/// A FactsOf / FactsWith span as a vector, for comparisons.
std::vector<int> Indexes(std::span<const int> indexes) {
  return std::vector<int>(indexes.begin(), indexes.end());
}

TEST(TermArenaTest, ConstantsInterned) {
  TermArena arena;
  ChaseTermId a = arena.InternConstant(Value::Int(1));
  ChaseTermId b = arena.InternConstant(Value::Int(1));
  ChaseTermId c = arena.InternConstant(Value::Str("1"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(TermArena::IsConstant(a));
  EXPECT_FALSE(TermArena::IsNull(a));
  EXPECT_EQ(arena.ConstantOf(a), Value::Int(1));
}

TEST(TermArenaTest, NullsHaveUniqueDisplayNamesAndDepth) {
  TermArena arena;
  ChaseTermId a = arena.NewNull("x", 0);
  ChaseTermId b = arena.NewNull("x", 3);
  EXPECT_TRUE(TermArena::IsNull(a));
  EXPECT_NE(arena.DisplayName(a), arena.DisplayName(b));
  EXPECT_EQ(arena.DepthOf(a), 0);
  EXPECT_EQ(arena.DepthOf(b), 3);
  EXPECT_EQ(arena.num_nulls(), 2u);
}

TEST(TermArenaTest, LayeredArenaKeepsBaseConstantIds) {
  TermArena base;
  const ChaseTermId a = base.InternConstant(Value::Str("a"));
  const ChaseTermId b = base.InternConstant(Value::Str("b"));
  TermArena arena(&base);
  EXPECT_EQ(arena.InternConstant(Value::Str("b")), b);
  const ChaseTermId c = arena.InternConstant(Value::Str("c"));
  EXPECT_TRUE(TermArena::IsConstant(c));
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_EQ(arena.InternConstant(Value::Str("c")), c);
  EXPECT_EQ(arena.ConstantOf(a), Value::Str("a"));
  EXPECT_EQ(arena.ConstantOf(c), Value::Str("c"));
  EXPECT_EQ(arena.DisplayName(b), "\"b\"");
  EXPECT_EQ(arena.DepthOf(a), 0);
  // Nulls are the layered arena's own.
  EXPECT_EQ(arena.NewNull("x", 0), 0);
  EXPECT_EQ(base.num_nulls(), 0u);
}

TEST(TermArenaTest, TermsReadBackAcrossChunkBoundaries) {
  // Chunks grow geometrically (64, 128, 256, ... elements); 5000 terms
  // cross six chunk boundaries in both stores.
  TermArena arena;
  constexpr int kTerms = 5000;
  std::vector<ChaseTermId> nulls;
  std::vector<ChaseTermId> constants;
  for (int i = 0; i < kTerms; ++i) {
    nulls.push_back(arena.NewNull("x", i % 7));
    constants.push_back(arena.InternConstant(Value::Int(i)));
  }
  EXPECT_EQ(arena.num_nulls(), static_cast<size_t>(kTerms));
  for (int i = 0; i < kTerms; ++i) {
    EXPECT_EQ(nulls[i], i);
    EXPECT_EQ(arena.DisplayName(nulls[i]), "x_" + std::to_string(i));
    EXPECT_EQ(arena.DepthOf(nulls[i]), i % 7);
    EXPECT_EQ(arena.ConstantOf(constants[i]), Value::Int(i));
    EXPECT_EQ(arena.InternConstant(Value::Int(i)), constants[i]);
  }
}

TEST(ChaseConfigTest, AddContainsAndIndex) {
  ChaseConfig config;
  Fact f(0, {1, 2});
  EXPECT_TRUE(config.Add(f));
  EXPECT_FALSE(config.Add(f));
  EXPECT_TRUE(config.Contains(f));
  EXPECT_FALSE(config.Contains(Fact(0, {2, 1})));
  EXPECT_EQ(config.FactsOf(0).size(), 1u);
  EXPECT_TRUE(config.FactsOf(7).empty());
  config.Add(Fact(0, {1, 5}));
  EXPECT_EQ(config.TermsAt(0, 0), (std::vector<ChaseTermId>{1}));
  EXPECT_EQ(config.TermsAt(0, 1), (std::vector<ChaseTermId>{2, 5}));
}

TEST(ChaseConfigTest, PositionalIndex) {
  ChaseConfig config;
  config.Add(Fact(0, {1, 2}));
  config.Add(Fact(0, {1, 5}));
  config.Add(Fact(0, {3, 2}));
  config.Add(Fact(1, {1}));
  EXPECT_EQ(Indexes(config.FactsWith(0, 0, 1)), (std::vector<int>{0, 1}));
  EXPECT_EQ(Indexes(config.FactsWith(0, 1, 2)), (std::vector<int>{0, 2}));
  EXPECT_EQ(Indexes(config.FactsWith(0, 0, 3)), (std::vector<int>{2}));
  EXPECT_TRUE(config.FactsWith(0, 0, 9).empty());
  EXPECT_TRUE(config.FactsWith(7, 0, 1).empty());
  EXPECT_EQ(Indexes(config.FactsWith(1, 0, 1)), (std::vector<int>{3}));
  // Duplicate adds leave the index untouched.
  EXPECT_FALSE(config.Add(Fact(0, {1, 2})));
  EXPECT_EQ(Indexes(config.FactsWith(0, 0, 1)), (std::vector<int>{0, 1}));
  // Copies rebuild the positional index lazily and stay independent.
  ChaseConfig copy = config;
  copy.Add(Fact(0, {1, 7}));
  EXPECT_EQ(Indexes(copy.FactsWith(0, 0, 1)), (std::vector<int>{0, 1, 4}));
  EXPECT_EQ(Indexes(config.FactsWith(0, 0, 1)), (std::vector<int>{0, 1}));
  config = copy;
  EXPECT_EQ(Indexes(config.FactsWith(0, 0, 1)), (std::vector<int>{0, 1, 4}));
}

TEST(ChaseConfigTest, CopiesTakeLaterAddsIndependently) {
  ChaseConfig original;
  original.Add(Fact(0, {1, 2}));
  original.Add(Fact(1, {3}));
  ChaseConfig copy = original;
  // The copy grows without touching the original...
  EXPECT_TRUE(copy.Add(Fact(0, {4, 5})));
  EXPECT_TRUE(copy.Add(Fact(1, {6})));
  EXPECT_EQ(original.size(), 2u);
  EXPECT_FALSE(original.Contains(Fact(0, {4, 5})));
  EXPECT_EQ(Indexes(original.FactsOf(0)), (std::vector<int>{0}));
  EXPECT_EQ(Indexes(copy.FactsOf(0)), (std::vector<int>{0, 2}));
  // ... and the original grows without touching the copy, even with a fact
  // the copy already holds at another index.
  EXPECT_TRUE(original.Add(Fact(1, {6})));
  EXPECT_TRUE(original.Add(Fact(2, {7, 8, 9})));
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_FALSE(copy.Contains(Fact(2, {7, 8, 9})));
  EXPECT_TRUE(copy.FactsOf(2).empty());
  EXPECT_EQ(Indexes(original.FactsOf(1)), (std::vector<int>{1, 2}));
  EXPECT_EQ(Indexes(copy.FactsOf(1)), (std::vector<int>{1, 3}));
  EXPECT_EQ(original.fact(2), FactRef(Fact(1, {6})));
  EXPECT_EQ(copy.fact(2), FactRef(Fact(0, {4, 5})));
  // Duplicates stay duplicates on both sides.
  EXPECT_FALSE(copy.Add(Fact(0, {1, 2})));
  EXPECT_FALSE(original.Add(Fact(2, {7, 8, 9})));
}

TEST(ChaseConfigTest, InterleavedAddsKeepIndexesAscendingOnCopies) {
  // Facts over relations of arity 1, 2 and 3 arrive interleaved, and later
  // relations are filed before earlier ones; every index stays ascending in
  // insertion order, on the original and on copies extended further.
  ChaseConfig config;
  std::vector<Fact> added;
  for (int i = 0; i < 30; ++i) {
    const RelationId relation = (i * 7) % 3 == 0 ? 2 : (i % 2 == 0 ? 0 : 1);
    std::vector<ChaseTermId> terms(static_cast<size_t>(relation) + 1, i % 4);
    terms.back() = i;
    added.push_back(Fact(relation, terms));
    ASSERT_TRUE(config.Add(added.back()));
  }
  ChaseConfig copy = config;
  for (int i = 30; i < 45; ++i) {
    const RelationId relation = i % 3;
    std::vector<ChaseTermId> terms(static_cast<size_t>(relation) + 1, i % 4);
    terms.back() = i;
    added.push_back(Fact(relation, terms));
    ASSERT_TRUE(copy.Add(added.back()));
  }
  ASSERT_EQ(copy.size(), added.size());
  for (RelationId relation = 0; relation < 3; ++relation) {
    std::vector<int> expected;
    for (size_t i = 0; i < added.size(); ++i) {
      if (added[i].relation == relation) expected.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(Indexes(copy.FactsOf(relation)), expected) << relation;
    for (int term = 0; term < 4; ++term) {
      std::vector<int> with;
      for (int i : expected) {
        if (added[i].terms[0] == term) with.push_back(i);
      }
      EXPECT_EQ(Indexes(copy.FactsWith(relation, 0, term)), with)
          << relation << " " << term;
    }
  }
  for (size_t i = 0; i < added.size(); ++i) {
    EXPECT_EQ(copy.fact(i), FactRef(added[i])) << i;
  }
  EXPECT_EQ(config.size(), 30u);
}

TEST(ChaseConfigTest, ContainsSeparatesRelationsWithEqualTerms) {
  ChaseConfig config;
  config.Add(Fact(0, {1, 2}));
  EXPECT_TRUE(config.Contains(Fact(0, {1, 2})));
  EXPECT_FALSE(config.Contains(Fact(1, {1, 2})));
  EXPECT_TRUE(config.Add(Fact(1, {1, 2})));
  EXPECT_TRUE(config.Contains(Fact(1, {1, 2})));
  EXPECT_FALSE(config.Contains(Fact(2, {1, 2})));
  EXPECT_EQ(config.size(), 2u);
}

TEST(ChaseConfigTest, AddMayViewTheSameConfiguration) {
  // Copying a fact's terms under another relation from a view of the same
  // configuration, through enough Adds that the term array is reallocated:
  // each Add must read its terms before they move.
  ChaseConfig config;
  config.Add(Fact(0, {1, 2, 3}));
  for (RelationId relation = 1; relation < 64; ++relation) {
    const FactRef previous = config.fact(config.size() - 1);
    ASSERT_TRUE(config.Add(FactRef{relation, previous.terms}));
  }
  for (size_t i = 0; i < config.size(); ++i) {
    EXPECT_EQ(config.fact(i),
              FactRef(Fact(static_cast<RelationId>(i), {1, 2, 3})));
  }
  // A view of a fact already present is a duplicate.
  EXPECT_FALSE(config.Add(config.fact(5)));
}

TEST(MatcherTest, FactWindowsRestrictMatches) {
  // A 9-fact chain i -> i+1 over R (above kIndexProbeThreshold, so the
  // matcher seeds from the positional index); windows restrict which fact
  // indexes an atom may use.
  ChaseConfig config;
  for (int i = 1; i <= 9; ++i) {
    config.Add(Fact(0, {i, i + 1}));  // index i - 1
  }
  std::vector<Atom> atoms = {
      Atom(0, {Term::Var("x"), Term::Var("y")}),
      Atom(0, {Term::Var("y"), Term::Var("z")}),
  };
  TermArena arena;
  VariableTable vars;
  auto pattern = CompileAtoms(atoms, vars, arena);
  // Unconstrained: chains (0,1), (1,2), ..., (7,8).
  std::vector<ChaseTermId> assignment(vars.size(), kUnboundTerm);
  int count = 0;
  EnumerateHomomorphisms(pattern, config, assignment,
                         [&](const std::vector<ChaseTermId>&) {
                           ++count;
                           return true;
                         });
  EXPECT_EQ(count, 8);
  // Pin the first atom to the "delta" [7, 9): only chain (7,8) survives.
  std::vector<FactWindow> windows = {FactWindow{7, 9}, FactWindow{0, 9}};
  MatchStats stats;
  MatchOptions options{windows.data(), &stats};
  count = 0;
  EnumerateHomomorphisms(
      pattern, config, assignment,
      [&](const std::vector<ChaseTermId>& full) {
        ++count;
        EXPECT_EQ(full[vars.IndexOf("x")], 8);
        return true;
      },
      options);
  EXPECT_EQ(count, 1);
  EXPECT_GT(stats.index_probes, 0);
}

TEST(MatcherTest, EnumeratesAllHomomorphisms) {
  // Pattern R(x, y), R(y, z) over facts 1->2, 2->3, 2->4.
  ChaseConfig config;
  config.Add(Fact(0, {1, 2}));
  config.Add(Fact(0, {2, 3}));
  config.Add(Fact(0, {2, 4}));
  std::vector<Atom> atoms = {
      Atom(0, {Term::Var("x"), Term::Var("y")}),
      Atom(0, {Term::Var("y"), Term::Var("z")}),
  };
  TermArena arena;
  VariableTable vars;
  auto pattern = CompileAtoms(atoms, vars, arena);
  std::vector<ChaseTermId> assignment(vars.size(), kUnboundTerm);
  int count = 0;
  EnumerateHomomorphisms(pattern, config, assignment,
                         [&](const std::vector<ChaseTermId>&) {
                           ++count;
                           return true;
                         });
  // 1->2->3, 1->2->4, 2->3?no, 2->4?no ... also y->z with (2,3),(3,?) no.
  EXPECT_EQ(count, 2);
  // Assignment restored afterwards.
  for (ChaseTermId t : assignment) EXPECT_EQ(t, kUnboundTerm);
}

TEST(MatcherTest, PreboundAssignmentRestricts) {
  ChaseConfig config;
  config.Add(Fact(0, {1, 2}));
  config.Add(Fact(0, {3, 4}));
  std::vector<Atom> atoms = {Atom(0, {Term::Var("x"), Term::Var("y")})};
  TermArena arena;
  VariableTable vars;
  auto pattern = CompileAtoms(atoms, vars, arena);
  std::vector<ChaseTermId> assignment(vars.size(), kUnboundTerm);
  assignment[vars.IndexOf("x")] = 3;
  EXPECT_TRUE(HasHomomorphism(pattern, config, assignment));
  assignment[vars.IndexOf("x")] = 9;
  EXPECT_FALSE(HasHomomorphism(pattern, config, assignment));
}

TEST(MatcherTest, ConstantSlots) {
  TermArena arena;
  ChaseTermId c = arena.InternConstant(Value::Str("smith"));
  ChaseConfig config;
  config.Add(Fact(0, {1, c}));
  std::vector<Atom> atoms = {Atom(0, {Term::Var("x"), Term::Const("smith")})};
  VariableTable vars;
  auto pattern = CompileAtoms(atoms, vars, arena);
  std::vector<ChaseTermId> assignment(vars.size(), kUnboundTerm);
  EXPECT_TRUE(HasHomomorphism(pattern, config, assignment));

  std::vector<Atom> wrong = {Atom(0, {Term::Var("x"), Term::Const("jones")})};
  VariableTable vars2;
  auto pattern2 = CompileAtoms(wrong, vars2, arena);
  std::vector<ChaseTermId> assignment2(vars2.size(), kUnboundTerm);
  EXPECT_FALSE(HasHomomorphism(pattern2, config, assignment2));
}

TEST(CanonicalDatabaseTest, OneNullPerVariableOneFactPerAtom) {
  Schema schema;
  schema.AddRelation("R", 2).value();
  auto query = ParseQuery(schema, "Q(x) :- R(x, y), R(y, x)");
  ASSERT_TRUE(query.ok());
  TermArena arena;
  CanonicalDatabase canonical = BuildCanonicalDatabase(*query, arena);
  EXPECT_EQ(canonical.config.size(), 2u);
  EXPECT_EQ(canonical.var_to_term.size(), 2u);
  EXPECT_NE(canonical.var_to_term.at("x"), canonical.var_to_term.at("y"));
}

TEST(ChaseEngineTest, RestrictedChaseDoesNotRefireSatisfiedHeads) {
  Schema schema;
  schema.AddRelation("R", 2).value();
  schema.AddRelation("S", 2).value();
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "R(x, y) -> S(x, z)")).ok());
  auto query = ParseQuery(schema, "Q() :- R(a, b), S(a, c)");
  TermArena arena;
  ChaseEngine engine(&schema, &arena);
  CanonicalDatabase canonical = BuildCanonicalDatabase(*query, arena);
  ChaseOptions options;
  auto stats = engine.Run(schema.constraints(), options, canonical.config);
  ASSERT_TRUE(stats.ok());
  // The head S(a, _) is already witnessed by the canonical S(a, c): no firing.
  EXPECT_EQ(stats->firings, 0);
  EXPECT_TRUE(stats->reached_fixpoint);
}

TEST(ChaseEngineTest, ChainFiresOncePerLink) {
  Schema schema;
  schema.AddRelation("A", 1).value();
  schema.AddRelation("B", 1).value();
  schema.AddRelation("C", 1).value();
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "A(x) -> B(x)")).ok());
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "B(x) -> C(x)")).ok());
  auto query = ParseQuery(schema, "Q() :- A(u)");
  TermArena arena;
  ChaseEngine engine(&schema, &arena);
  CanonicalDatabase canonical = BuildCanonicalDatabase(*query, arena);
  ChaseOptions options;
  auto stats = engine.Run(schema.constraints(), options, canonical.config);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->firings, 2);
  EXPECT_EQ(canonical.config.size(), 3u);
  // No nulls invented: the constraints are full TGDs.
  EXPECT_EQ(arena.num_nulls(), 1u);
}

TEST(ChaseEngineTest, ExistentialsInventNullsWithDepth) {
  Schema schema;
  schema.AddRelation("R", 2).value();
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "R(x, y) -> R(y, z)")).ok());
  auto query = ParseQuery(schema, "Q() :- R(a, b)");
  TermArena arena;
  ChaseEngine engine(&schema, &arena);
  CanonicalDatabase canonical = BuildCanonicalDatabase(*query, arena);
  ChaseOptions options;
  options.max_null_depth = 3;
  auto stats = engine.Run(schema.constraints(), options, canonical.config);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->reached_fixpoint);
  EXPECT_EQ(stats->firings, 3);  // depths 1, 2, 3 then capped
  EXPECT_GT(stats->depth_capped_triggers, 0);
}

TEST(ChaseEngineTest, FiringCapRespected) {
  Schema schema;
  schema.AddRelation("R", 2).value();
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "R(x, y) -> R(y, z)")).ok());
  auto query = ParseQuery(schema, "Q() :- R(a, b)");
  TermArena arena;
  ChaseEngine engine(&schema, &arena);
  CanonicalDatabase canonical = BuildCanonicalDatabase(*query, arena);
  ChaseOptions options;
  options.max_firings = 5;
  options.fail_on_firing_cap = true;
  auto stats = engine.Run(schema.constraints(), options, canonical.config);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);

  TermArena arena2;
  ChaseEngine engine2(&schema, &arena2);
  CanonicalDatabase canonical2 = BuildCanonicalDatabase(*query, arena2);
  options.fail_on_firing_cap = false;
  auto stats2 = engine2.Run(schema.constraints(), options, canonical2.config);
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->firings, 5);
  EXPECT_FALSE(stats2->reached_fixpoint);
}

TEST(ChaseEngineTest, GuardedBlockingTerminatesCyclicSet) {
  Schema schema;
  schema.AddRelation("R", 2).value();
  schema.AddRelation("S", 2).value();
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "R(x, y) -> S(y, z)")).ok());
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "S(x, y) -> R(y, z)")).ok());
  auto query = ParseQuery(schema, "Q() :- R(a, b)");
  TermArena arena;
  ChaseEngine engine(&schema, &arena);
  CanonicalDatabase canonical = BuildCanonicalDatabase(*query, arena);
  ChaseOptions options;
  options.use_guarded_blocking = true;
  options.max_firings = 10000;
  auto stats = engine.Run(schema.constraints(), options, canonical.config);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->reached_fixpoint);
  EXPECT_LT(stats->firings, 10);
  EXPECT_GT(stats->blocked_triggers, 0);
}

TEST(ChaseEngineTest, TgdWithConstantsInHead) {
  Schema schema;
  schema.AddRelation("R", 1).value();
  schema.AddRelation("Tagged", 2).value();
  ASSERT_TRUE(
      schema.AddConstraint(*ParseTgd(schema, "R(x) -> Tagged(x, \"hot\")"))
          .ok());
  auto query = ParseQuery(schema, "Q() :- R(a)");
  TermArena arena;
  ChaseEngine engine(&schema, &arena);
  CanonicalDatabase canonical = BuildCanonicalDatabase(*query, arena);
  ChaseOptions options;
  auto stats = engine.Run(schema.constraints(), options, canonical.config);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->firings, 1);
  // The Tagged fact carries the interned constant.
  ChaseTermId hot = arena.InternConstant(Value::Str("hot"));
  bool found = false;
  for (const FactRef fact : canonical.config.facts()) {
    if (fact.relation == 1 && fact.terms[1] == hot) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ChaseEngineTest, TgdsCompiledIntoABaseArenaChaseTheSame) {
  // TGDs whose bodies and heads carry constants, some shared with the query
  // ("a", "b") and some only in a TGD ("c", 7), beside a query-only one
  // ("q"): chased once with the TGDs
  // compiled into a base arena the run's arena layers over (constant ids
  // then differ), and once compiled into the run's own arena. The
  // configurations must agree fact for fact.
  Schema schema;
  schema.AddRelation("R", 2).value();
  schema.AddRelation("S", 2).value();
  schema.AddRelation("T", 3).value();
  for (const char* text :
       {"R(x, \"a\") -> S(x, \"b\")", "S(x, \"b\") -> T(\"c\", x, y)",
        "T(\"c\", x, y) & R(x, z) -> R(y, 7)", "R(x, 7) -> S(\"a\", x)",
        "S(\"a\", x) & S(x, \"b\") -> T(x, \"a\", \"c\")"}) {
    ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, text)).ok()) << text;
  }
  auto query = ParseQuery(
      schema, "Q() :- R(u, \"a\"), R(u, v), S(v, \"q\"), S(\"q\", \"b\")");
  ASSERT_TRUE(query.ok()) << query.status();
  ChaseOptions options;
  options.max_null_depth = 3;

  TermArena base;
  std::vector<CompiledTgd> base_compiled;
  for (const Tgd& tgd : schema.constraints()) {
    base_compiled.push_back(CompileTgd(tgd, base));
  }
  TermArena layered(&base);
  CanonicalDatabase in_layered = BuildCanonicalDatabase(*query, layered);
  ChaseEngine layered_engine(&schema, &layered);
  auto layered_stats =
      layered_engine.Run(base_compiled, options, in_layered.config);
  ASSERT_TRUE(layered_stats.ok()) << layered_stats.status();

  TermArena own;
  CanonicalDatabase in_own = BuildCanonicalDatabase(*query, own);
  std::vector<CompiledTgd> own_compiled;
  for (const Tgd& tgd : schema.constraints()) {
    own_compiled.push_back(CompileTgd(tgd, own));
  }
  ChaseEngine own_engine(&schema, &own);
  auto own_stats = own_engine.Run(own_compiled, options, in_own.config);
  ASSERT_TRUE(own_stats.ok()) << own_stats.status();

  // The constants' ids differ between the runs; their facts do not.
  EXPECT_NE(layered.InternConstant(Value::Str("b")),
            own.InternConstant(Value::Str("b")));
  EXPECT_GT(layered_stats->firings, 3);
  EXPECT_EQ(layered_stats->firings, own_stats->firings);
  ASSERT_EQ(in_layered.config.size(), in_own.config.size());
  for (size_t i = 0; i < in_own.config.size(); ++i) {
    EXPECT_EQ(FactToString(in_layered.config.fact(i), schema, layered),
              FactToString(in_own.config.fact(i), schema, own))
        << i;
  }
}

}  // namespace
}  // namespace lcp
