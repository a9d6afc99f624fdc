#include "lcp/ra/eval.h"

#include <gtest/gtest.h>

#include "lcp/ra/batch.h"
#include "lcp/ra/expr.h"
#include "lcp/ra/table.h"

namespace lcp {
namespace {

Table MakeTable(std::vector<std::string> attrs,
                std::vector<std::vector<int64_t>> rows) {
  Table table(std::move(attrs));
  for (const auto& row : rows) {
    Tuple tuple;
    for (int64_t v : row) tuple.push_back(Value::Int(v));
    table.Insert(std::move(tuple));
  }
  return table;
}

TEST(TableTest, InsertDedupAndAttrIndex) {
  Table t = MakeTable({"a", "b"}, {{1, 2}, {1, 2}, {3, 4}});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.AttrIndex("b"), 1);
  EXPECT_EQ(t.AttrIndex("z"), -1);
  EXPECT_TRUE(t.ContainsRow({Value::Int(3), Value::Int(4)}));
}

TEST(TableTest, TableFromBatchKeepsSetSemantics) {
  // ToTable stores the batch's rows without a dedup probe; the table still
  // rejects a row it holds and finds it.
  TermPool pool;
  std::vector<TermCode> a;
  std::vector<TermCode> b;
  for (int64_t i = 0; i < 3; ++i) {
    a.push_back(pool.Intern(Value::Int(i)));
    b.push_back(pool.Intern(Value::Int(10 * i)));
  }
  Table t = ColumnBatch::FromDense({"a", "b"}, {a, b}, 3).ToTable(pool);
  ASSERT_EQ(t.size(), 3u);
  const Tuple held{Value::Int(1), Value::Int(10)};
  EXPECT_TRUE(t.ContainsRow(held));
  EXPECT_FALSE(t.ContainsRow({Value::Int(1), Value::Int(20)}));
  EXPECT_FALSE(t.Insert(held));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::Int(20)}));
  EXPECT_FALSE(t.Insert({Value::Int(1), Value::Int(20)}));
  EXPECT_TRUE(t.ContainsRow(held));
  EXPECT_EQ(t.size(), 4u);
}

TEST(RaEvalTest, TempScanAndMissingTable) {
  TableEnv env;
  env["t"] = MakeTable({"a"}, {{1}});
  auto ok = EvaluateRa(*RaExpr::TempScan("t"), env);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 1u);
  EXPECT_FALSE(EvaluateRa(*RaExpr::TempScan("missing"), env).ok());
}

TEST(RaEvalTest, SingletonIsNullaryWithOneRow) {
  TableEnv env;
  auto result = EvaluateRa(*RaExpr::Singleton(), env);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->attrs().empty());
  EXPECT_EQ(result->size(), 1u);
}

TEST(RaEvalTest, ProjectReordersAndDeduplicates) {
  TableEnv env;
  env["t"] = MakeTable({"a", "b"}, {{1, 7}, {2, 7}});
  auto result =
      EvaluateRa(*RaExpr::Project(RaExpr::TempScan("t"), {"b"}), env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // both rows project to (7)
  EXPECT_EQ(result->attrs(), (std::vector<std::string>{"b"}));

  EXPECT_FALSE(
      EvaluateRa(*RaExpr::Project(RaExpr::TempScan("t"), {"zz"}), env).ok());
}

TEST(RaEvalTest, ProjectToNullary) {
  TableEnv env;
  env["t"] = MakeTable({"a"}, {{1}, {2}});
  auto result = EvaluateRa(*RaExpr::Project(RaExpr::TempScan("t"), {}), env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // non-empty input -> one empty row
}

TEST(RaEvalTest, SelectAttrEqAttrAndConst) {
  TableEnv env;
  env["t"] = MakeTable({"a", "b"}, {{1, 1}, {1, 2}, {3, 3}});
  auto eq = EvaluateRa(
      *RaExpr::Select(RaExpr::TempScan("t"),
                      {RaExpr::Condition::AttrEqAttr("a", "b")}),
      env);
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->size(), 2u);

  auto constant = EvaluateRa(
      *RaExpr::Select(RaExpr::TempScan("t"),
                      {RaExpr::Condition::AttrEqConst("a", Value::Int(1))}),
      env);
  ASSERT_TRUE(constant.ok());
  EXPECT_EQ(constant->size(), 2u);

  auto both = EvaluateRa(
      *RaExpr::Select(RaExpr::TempScan("t"),
                      {RaExpr::Condition::AttrEqAttr("a", "b"),
                       RaExpr::Condition::AttrEqConst("a", Value::Int(3))}),
      env);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->size(), 1u);
}

TEST(RaEvalTest, NaturalJoinOnSharedAttrs) {
  TableEnv env;
  env["l"] = MakeTable({"a", "b"}, {{1, 2}, {3, 4}});
  env["r"] = MakeTable({"b", "c"}, {{2, 10}, {2, 11}, {5, 12}});
  auto result = EvaluateRa(
      *RaExpr::Join(RaExpr::TempScan("l"), RaExpr::TempScan("r")), env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->attrs(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(result->size(), 2u);
}

TEST(RaEvalTest, JoinWithoutSharedAttrsIsCrossProduct) {
  TableEnv env;
  env["l"] = MakeTable({"a"}, {{1}, {2}});
  env["r"] = MakeTable({"b"}, {{8}, {9}});
  auto result = EvaluateRa(
      *RaExpr::Join(RaExpr::TempScan("l"), RaExpr::TempScan("r")), env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 4u);
}

TEST(RaEvalTest, JoinWithNullaryActsAsGate) {
  TableEnv env;
  env["data"] = MakeTable({"a"}, {{1}, {2}});
  env["open"] = MakeTable({}, {});
  env["open"].Insert(Tuple{});
  env["closed"] = MakeTable({}, {});
  auto open = EvaluateRa(
      *RaExpr::Join(RaExpr::TempScan("data"), RaExpr::TempScan("open")), env);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->size(), 2u);
  auto closed = EvaluateRa(
      *RaExpr::Join(RaExpr::TempScan("data"), RaExpr::TempScan("closed")),
      env);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed->empty());
}

TEST(RaEvalTest, UnionAlignsByName) {
  TableEnv env;
  env["l"] = MakeTable({"a", "b"}, {{1, 2}});
  env["r"] = MakeTable({"b", "a"}, {{2, 1}, {9, 8}});
  auto result = EvaluateRa(
      *RaExpr::Union(RaExpr::TempScan("l"), RaExpr::TempScan("r")), env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // (1,2) deduplicated across operands
  EXPECT_TRUE(result->ContainsRow({Value::Int(8), Value::Int(9)}));
}

TEST(RaEvalTest, UnionRejectsMismatchedAttrs) {
  TableEnv env;
  env["l"] = MakeTable({"a"}, {{1}});
  env["r"] = MakeTable({"b"}, {{1}});
  EXPECT_FALSE(
      EvaluateRa(*RaExpr::Union(RaExpr::TempScan("l"), RaExpr::TempScan("r")),
                 env)
          .ok());
}

TEST(RaEvalTest, DifferenceAlignsByName) {
  TableEnv env;
  env["l"] = MakeTable({"a", "b"}, {{1, 2}, {3, 4}});
  env["r"] = MakeTable({"b", "a"}, {{2, 1}});
  auto result = EvaluateRa(
      *RaExpr::Difference(RaExpr::TempScan("l"), RaExpr::TempScan("r")), env);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->ContainsRow({Value::Int(3), Value::Int(4)}));
}

TEST(RaEvalTest, RenameChangesAttrs) {
  TableEnv env;
  env["t"] = MakeTable({"a", "b"}, {{1, 2}});
  auto result = EvaluateRa(
      *RaExpr::Rename(RaExpr::TempScan("t"), {{"a", "x"}}), env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->attrs(), (std::vector<std::string>{"x", "b"}));
  EXPECT_FALSE(
      EvaluateRa(*RaExpr::Rename(RaExpr::TempScan("t"), {{"zz", "x"}}), env)
          .ok());
}

TEST(RaExprTest, UsesAndReferencedTables) {
  RaExprPtr expr = RaExpr::Union(
      RaExpr::Project(RaExpr::TempScan("t1"), {"a"}),
      RaExpr::Join(RaExpr::TempScan("t2"), RaExpr::TempScan("t3")));
  EXPECT_TRUE(expr->Uses(RaExpr::Op::kUnion));
  EXPECT_TRUE(expr->Uses(RaExpr::Op::kJoin));
  EXPECT_FALSE(expr->Uses(RaExpr::Op::kDifference));
  EXPECT_EQ(expr->ReferencedTables(),
            (std::vector<std::string>{"t1", "t2", "t3"}));
}

TEST(RaExprTest, ToStringSmoke) {
  RaExprPtr expr = RaExpr::Select(
      RaExpr::TempScan("t"),
      {RaExpr::Condition::AttrEqConst("a", Value::Str("smith"))});
  EXPECT_EQ(expr->ToString(), "select[a=\"smith\"](scan(t))");
}

}  // namespace
}  // namespace lcp
