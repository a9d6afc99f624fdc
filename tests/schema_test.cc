#include "lcp/schema/schema.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "lcp/schema/parser.h"

namespace lcp {
namespace {

TEST(SchemaTest, AddAndLookupRelations) {
  Schema schema;
  auto r = schema.AddRelation("R", 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(schema.relation(*r).name, "R");
  EXPECT_EQ(schema.relation(*r).arity, 2);
  EXPECT_EQ(*schema.RelationByName("R"), *r);
  EXPECT_FALSE(schema.RelationByName("S").ok());
  EXPECT_FALSE(schema.AddRelation("R", 3).ok());  // duplicate
  EXPECT_FALSE(schema.AddRelation("Neg", -1).ok());
}

TEST(SchemaTest, AccessMethodValidation) {
  Schema schema;
  RelationId r = *schema.AddRelation("R", 2);
  EXPECT_TRUE(schema.AddAccessMethod("m1", r, {0}).ok());
  EXPECT_FALSE(schema.AddAccessMethod("m1", r, {1}).ok());   // dup name
  EXPECT_FALSE(schema.AddAccessMethod("m2", r, {2}).ok());   // out of range
  EXPECT_FALSE(schema.AddAccessMethod("m3", r, {0, 0}).ok());  // dup pos
  EXPECT_FALSE(schema.AddAccessMethod("m4", r, {}, 0.0).ok());  // zero cost
  EXPECT_FALSE(schema.AddAccessMethod("m5", 99, {}).ok());   // bad relation
  auto free = schema.AddAccessMethod("m6", r, {});
  ASSERT_TRUE(free.ok());
  EXPECT_TRUE(schema.access_method(*free).is_free_access());
  EXPECT_EQ(schema.MethodsOnRelation(r).size(), 2u);
}

TEST(SchemaTest, InputPositionsSorted) {
  Schema schema;
  RelationId r = *schema.AddRelation("R", 3);
  auto m = schema.AddAccessMethod("m", r, {2, 0});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(schema.access_method(*m).input_positions,
            (std::vector<int>{0, 2}));
}

TEST(SchemaTest, ConstantsDeduplicated) {
  Schema schema;
  schema.AddConstant(Value::Str("smith"));
  schema.AddConstant(Value::Str("smith"));
  schema.AddConstant(Value::Int(3));
  EXPECT_EQ(schema.constants().size(), 2u);
  EXPECT_TRUE(schema.IsSchemaConstant(Value::Int(3)));
  EXPECT_FALSE(schema.IsSchemaConstant(Value::Int(4)));
}

TEST(SchemaTest, ConstraintValidation) {
  Schema schema;
  RelationId r = *schema.AddRelation("R", 2);
  RelationId s = *schema.AddRelation("S", 1);
  Tgd good;
  good.body = {Atom(r, {Term::Var("x"), Term::Var("y")})};
  good.head = {Atom(s, {Term::Var("y")})};
  EXPECT_TRUE(schema.AddConstraint(good).ok());
  EXPECT_EQ(schema.constraints().size(), 1u);
  EXPECT_FALSE(schema.constraints()[0].name.empty());  // auto-named

  Tgd bad_arity;
  bad_arity.body = {Atom(r, {Term::Var("x")})};
  bad_arity.head = {Atom(s, {Term::Var("x")})};
  EXPECT_FALSE(schema.AddConstraint(bad_arity).ok());
}

TEST(SchemaTest, AllConstraintsGuarded) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 2).ok());
  ASSERT_TRUE(schema.AddRelation("S", 2).ok());
  EXPECT_TRUE(schema.AllConstraintsGuarded());  // vacuous
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "R(x,y) -> S(y,z)")).ok());
  EXPECT_TRUE(schema.AllConstraintsGuarded());
  ASSERT_TRUE(
      schema.AddConstraint(*ParseTgd(schema, "R(x,y) & S(y,z) -> R(x,z)"))
          .ok());
  EXPECT_FALSE(schema.AllConstraintsGuarded());
}

TEST(ParserTest, ParseAtomForms) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 3).ok());
  auto atom = schema.ParseAtom("R(x, \"smith\", -42)");
  ASSERT_TRUE(atom.ok()) << atom.status();
  EXPECT_TRUE(atom->terms[0].is_variable());
  EXPECT_EQ(atom->terms[1].constant(), Value::Str("smith"));
  EXPECT_EQ(atom->terms[2].constant(), Value::Int(-42));
}

TEST(ParserTest, ParseAtomErrors) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 1).ok());
  EXPECT_FALSE(schema.ParseAtom("S(x)").ok());       // unknown relation
  EXPECT_FALSE(schema.ParseAtom("R(x, y)").ok());    // arity mismatch
  EXPECT_FALSE(schema.ParseAtom("R(x").ok());        // unterminated
  EXPECT_FALSE(schema.ParseAtom("R(\"x)").ok());     // unterminated string
  EXPECT_FALSE(schema.ParseAtom("(x)").ok());        // missing name
}

TEST(ParserTest, BadIntegerLiteralIsInvalidArgument) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 1).ok());
  ASSERT_TRUE(schema.AddRelation("S", 1).ok());
  for (const char* text :
       {"Q() :- R(-)", "Q() :- R(99999999999999999999)", "Q() :- R(--1)"}) {
    auto query = ParseQuery(schema, text);
    ASSERT_FALSE(query.ok()) << text;
    EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument) << text;
  }
  auto tgd = ParseTgd(schema, "R(-) -> S(x)");
  ASSERT_FALSE(tgd.ok());
  EXPECT_EQ(tgd.status().code(), StatusCode::kInvalidArgument);

  auto min = ParseQuery(schema, "Q() :- R(-9223372036854775808)");
  ASSERT_TRUE(min.ok()) << min.status();
  EXPECT_EQ(min->atoms[0].terms[0].constant(),
            Value::Int(std::numeric_limits<int64_t>::min()));
}

TEST(ParserTest, ParseZeroArityAtom) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("Nullary", 0).ok());
  auto atom = schema.ParseAtom("Nullary()");
  ASSERT_TRUE(atom.ok());
  EXPECT_TRUE(atom->terms.empty());
}

TEST(ParserTest, ParseTgdAndQuery) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 2).ok());
  ASSERT_TRUE(schema.AddRelation("S", 2).ok());
  auto tgd = ParseTgd(schema, "R(x, y) & S(y, z) -> R(x, z)");
  ASSERT_TRUE(tgd.ok()) << tgd.status();
  EXPECT_EQ(tgd->body.size(), 2u);
  EXPECT_EQ(tgd->head.size(), 1u);

  auto query = ParseQuery(schema, "Q(x) :- R(x, y), S(y, x)");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->free_variables, (std::vector<std::string>{"x"}));
  EXPECT_EQ(query->atoms.size(), 2u);

  auto boolean = ParseQuery(schema, "Q() :- R(a, b)");
  ASSERT_TRUE(boolean.ok());
  EXPECT_TRUE(boolean->is_boolean());

  EXPECT_FALSE(ParseTgd(schema, "R(x, y)").ok());          // no arrow
  EXPECT_FALSE(ParseQuery(schema, "Q(x) R(x, y)").ok());   // no :-
  EXPECT_FALSE(ParseQuery(schema, "Q(z) :- R(x, y)").ok());  // unsafe
}

TEST(ParserTest, RoundTripPrinting) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 2).ok());
  auto tgd = ParseTgd(schema, "R(x, y) -> R(y, z)");
  ASSERT_TRUE(tgd.ok());
  EXPECT_EQ(schema.TgdToString(*tgd), "R(x, y) -> R(y, z)");
  auto query = ParseQuery(schema, "Q(x) :- R(x, y)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(schema.QueryToString(*query), "Q(x) :- R(x, y)");
}

// --- SchemaFingerprint (the plan-cache epoch key) --------------------------

Schema MakeFingerprintBase() {
  Schema schema;
  RelationId r = *schema.AddRelation("R", 2);
  schema.AddRelation("S", 2).value();
  schema.AddAccessMethod("m_r", r, {0}, 2.0).value();
  schema.AddConstant(Value::Str("smith"));
  EXPECT_TRUE(
      schema.AddConstraint(*ParseTgd(schema, "R(x, y) -> S(y, x)")).ok());
  return schema;
}

TEST(SchemaFingerprintTest, DeterministicAcrossIdenticalBuilds) {
  EXPECT_EQ(SchemaFingerprint(MakeFingerprintBase()),
            SchemaFingerprint(MakeFingerprintBase()));
}

TEST(SchemaFingerprintTest, EveryKindOfEditChangesIt) {
  const uint64_t base = SchemaFingerprint(MakeFingerprintBase());

  {
    Schema s = MakeFingerprintBase();
    s.AddRelation("T", 1).value();
    EXPECT_NE(SchemaFingerprint(s), base) << "new relation";
  }
  {
    Schema s = MakeFingerprintBase();
    s.AddAccessMethod("m_s", *s.RelationByName("S"), {}).value();
    EXPECT_NE(SchemaFingerprint(s), base) << "new access method";
  }
  {
    Schema s = MakeFingerprintBase();
    s.AddConstant(Value::Int(7));
    EXPECT_NE(SchemaFingerprint(s), base) << "new constant";
  }
  {
    Schema s = MakeFingerprintBase();
    ASSERT_TRUE(s.AddConstraint(*ParseTgd(s, "S(x, y) -> R(y, x)")).ok());
    EXPECT_NE(SchemaFingerprint(s), base) << "new constraint";
  }
}

TEST(SchemaFingerprintTest, ConstraintDetailsMatter) {
  // Same relations/methods, constraints differing only in atom structure or
  // variable identity must fingerprint apart — the cache invalidation key
  // has to see *any* constraint edit.
  auto build = [](const std::string& tgd_text) {
    Schema s;
    RelationId r = *s.AddRelation("R", 2);
    s.AddRelation("S", 2).value();
    s.AddAccessMethod("m_r", r, {0}).value();
    EXPECT_TRUE(s.AddConstraint(*ParseTgd(s, tgd_text)).ok());
    return SchemaFingerprint(s);
  };
  const uint64_t a = build("R(x, y) -> S(x, y)");
  EXPECT_NE(a, build("R(x, y) -> S(y, x)")) << "head variable order";
  EXPECT_NE(a, build("R(x, x) -> S(x, x)")) << "repeated variable";
  EXPECT_NE(a, build("R(x, y) -> S(x, z)")) << "existential head variable";
  EXPECT_NE(a, build("S(x, y) -> R(x, y)")) << "direction flipped";
}

TEST(SchemaFingerprintTest, MethodDetailsMatter) {
  auto build = [](std::vector<int> positions, double cost) {
    Schema s;
    RelationId r = *s.AddRelation("R", 2);
    s.AddAccessMethod("m", r, std::move(positions), cost).value();
    return SchemaFingerprint(s);
  };
  const uint64_t a = build({0}, 1.0);
  EXPECT_NE(a, build({1}, 1.0)) << "input position";
  EXPECT_NE(a, build({0, 1}, 1.0)) << "extra input position";
  EXPECT_NE(a, build({0}, 2.0)) << "method cost";
  EXPECT_NE(a, build({}, 1.0)) << "free access";
}

}  // namespace
}  // namespace lcp
