#include <gtest/gtest.h>

#include "lcp/base/strings.h"
#include "lcp/logic/atom.h"
#include "lcp/logic/conjunctive_query.h"
#include "lcp/logic/containment.h"
#include "lcp/logic/term.h"
#include "lcp/logic/tgd.h"
#include "lcp/logic/value.h"

namespace lcp {
namespace {

TEST(ValueTest, IntAndStringDistinct) {
  EXPECT_NE(Value::Int(1), Value::Str("1"));
  EXPECT_EQ(Value::Int(7), Value::Int(7));
  EXPECT_LT(Value::Int(1), Value::Int(2));
}

TEST(ValueTest, ToStringQuotesStrings) {
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Str("smith").ToString(), "\"smith\"");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Str("ab").Hash(), Value::Str("ab").Hash());
  EXPECT_EQ(Value::Int(5).Hash(), Value::Int(5).Hash());
}

TEST(TermTest, Kinds) {
  Term v = Term::Var("x");
  Term c = Term::Const("smith");
  EXPECT_TRUE(v.is_variable());
  EXPECT_TRUE(c.is_constant());
  EXPECT_EQ(v.var(), "x");
  EXPECT_EQ(c.constant(), Value::Str("smith"));
  EXPECT_NE(v, c);
  EXPECT_EQ(Term::Var("x"), Term::Var("x"));
  EXPECT_NE(Term::Var("x"), Term::Var("y"));
}

TEST(AtomTest, CollectVariablesInOrderOfFirstOccurrence) {
  std::vector<Atom> atoms = {
      Atom(0, {Term::Var("b"), Term::Const(1), Term::Var("a")}),
      Atom(1, {Term::Var("a"), Term::Var("c")}),
  };
  EXPECT_EQ(CollectVariables(atoms),
            (std::vector<std::string>{"b", "a", "c"}));
}

TEST(ConjunctiveQueryTest, ValidateRejectsUnsafeFreeVariable) {
  ConjunctiveQuery query;
  query.free_variables = {"x"};
  query.atoms = {Atom(0, {Term::Var("y")})};
  EXPECT_FALSE(query.Validate().ok());
}

TEST(ConjunctiveQueryTest, ValidateRejectsRepeatedFreeVariable) {
  ConjunctiveQuery query;
  query.free_variables = {"x", "x"};
  query.atoms = {Atom(0, {Term::Var("x")})};
  EXPECT_FALSE(query.Validate().ok());
}

TEST(ConjunctiveQueryTest, AllVariablesFreeFirst) {
  ConjunctiveQuery query;
  query.free_variables = {"z"};
  query.atoms = {Atom(0, {Term::Var("a"), Term::Var("z")})};
  EXPECT_EQ(query.AllVariables(), (std::vector<std::string>{"z", "a"}));
}

TEST(TgdTest, FrontierAndExistentialVariables) {
  // R(x, y) -> S(y, z)
  Tgd tgd;
  tgd.body = {Atom(0, {Term::Var("x"), Term::Var("y")})};
  tgd.head = {Atom(1, {Term::Var("y"), Term::Var("z")})};
  EXPECT_EQ(tgd.FrontierVariables(), (std::vector<std::string>{"y"}));
  EXPECT_EQ(tgd.ExistentialVariables(), (std::vector<std::string>{"z"}));
}

TEST(TgdTest, GuardedDetection) {
  // Guarded: R(x, y, z) & S(x, y) -> T(z)
  Tgd guarded;
  guarded.body = {
      Atom(0, {Term::Var("x"), Term::Var("y"), Term::Var("z")}),
      Atom(1, {Term::Var("x"), Term::Var("y")})};
  guarded.head = {Atom(2, {Term::Var("z")})};
  EXPECT_TRUE(guarded.IsGuarded());

  // Not guarded: R(x, y) & S(y, z) -> T(x, z)
  Tgd unguarded;
  unguarded.body = {Atom(0, {Term::Var("x"), Term::Var("y")}),
                    Atom(1, {Term::Var("y"), Term::Var("z")})};
  unguarded.head = {Atom(2, {Term::Var("x"), Term::Var("z")})};
  EXPECT_FALSE(unguarded.IsGuarded());
}

TEST(TgdTest, InclusionDependencyDetection) {
  Tgd id;
  id.body = {Atom(0, {Term::Var("x"), Term::Var("y")})};
  id.head = {Atom(1, {Term::Var("y"), Term::Var("z")})};
  EXPECT_TRUE(id.IsInclusionDependency());

  Tgd repeated;
  repeated.body = {Atom(0, {Term::Var("x"), Term::Var("x")})};
  repeated.head = {Atom(1, {Term::Var("x")})};
  EXPECT_FALSE(repeated.IsInclusionDependency());

  Tgd with_constant;
  with_constant.body = {Atom(0, {Term::Var("x"), Term::Const(3)})};
  with_constant.head = {Atom(1, {Term::Var("x")})};
  EXPECT_FALSE(with_constant.IsInclusionDependency());
}

TEST(TgdTest, ValidateRequiresBodyAndHead) {
  Tgd empty_body;
  empty_body.head = {Atom(0, {Term::Var("x")})};
  EXPECT_FALSE(empty_body.Validate().ok());
  Tgd empty_head;
  empty_head.body = {Atom(0, {Term::Var("x")})};
  EXPECT_FALSE(empty_head.Validate().ok());
}

// --- CQ containment (Chandra-Merlin) --------------------------------------

ConjunctiveQuery Q(std::vector<std::string> free, std::vector<Atom> atoms) {
  ConjunctiveQuery query;
  query.free_variables = std::move(free);
  query.atoms = std::move(atoms);
  return query;
}

TEST(ContainmentTest, MoreConstrainedIsContained) {
  // q1(x) :- R(x, x)  is contained in  q2(x) :- R(x, y).
  ConjunctiveQuery q1 = Q({"x"}, {Atom(0, {Term::Var("x"), Term::Var("x")})});
  ConjunctiveQuery q2 = Q({"x"}, {Atom(0, {Term::Var("x"), Term::Var("y")})});
  EXPECT_TRUE(IsContainedIn(q1, q2));
  EXPECT_FALSE(IsContainedIn(q2, q1));
  EXPECT_FALSE(AreEquivalent(q1, q2));
}

TEST(ContainmentTest, RedundantAtomEquivalent) {
  // R(x, y) ∧ R(x, y') is equivalent to R(x, y).
  ConjunctiveQuery q1 = Q({"x"}, {Atom(0, {Term::Var("x"), Term::Var("y")}),
                                  Atom(0, {Term::Var("x"), Term::Var("z")})});
  ConjunctiveQuery q2 = Q({"x"}, {Atom(0, {Term::Var("x"), Term::Var("y")})});
  EXPECT_TRUE(AreEquivalent(q1, q2));
}

TEST(ContainmentTest, ConstantsMustMatch) {
  ConjunctiveQuery q1 = Q({}, {Atom(0, {Term::Const(1)})});
  ConjunctiveQuery q2 = Q({}, {Atom(0, {Term::Const(2)})});
  EXPECT_FALSE(IsContainedIn(q1, q2));
  ConjunctiveQuery q3 = Q({}, {Atom(0, {Term::Var("x")})});
  EXPECT_TRUE(IsContainedIn(q1, q3));  // specific ⊆ general
  EXPECT_FALSE(IsContainedIn(q3, q1));
}

TEST(ContainmentTest, PathQueries) {
  // Longer path is contained in shorter path (over same start).
  auto path = [](int n) {
    std::vector<Atom> atoms;
    for (int i = 0; i < n; ++i) {
      atoms.push_back(
          Atom(0, {Term::Var(StrCat("y", i)), Term::Var(StrCat("y", i + 1))}));
    }
    return Q({"y0"}, std::move(atoms));
  };
  EXPECT_TRUE(IsContainedIn(path(3), path(2)));
  EXPECT_FALSE(IsContainedIn(path(2), path(3)));
}

}  // namespace
}  // namespace lcp
