// Scenario machinery for the execution differential suite
// (exec_vectorized_test.cc): a seeded generator of always-valid
// schema/instance/plan triples, the stress-iteration knob, and the
// bit-identical result assertion.

#ifndef LCP_TESTS_EXEC_SCENARIO_H_
#define LCP_TESTS_EXEC_SCENARIO_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lcp/runtime/executor.h"

namespace lcp {
namespace exec_testing {

inline int StressIters(int fallback) {
  if (const char* env = std::getenv("LCP_EXEC_STRESS_ITERS")) {
    return std::max(1, std::atoi(env));
  }
  return fallback;
}

/// Builds a random but always-valid scenario from a seed: schema first,
/// then an instance over it, then a plan whose expressions only reference
/// attributes their tables really have.
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(uint64_t seed) : prng_(seed) {}

  void BuildSchema(Schema& schema) {
    const int num_relations = 2 + static_cast<int>(Pick(3));
    for (int r = 0; r < num_relations; ++r) {
      const int arity = 1 + static_cast<int>(Pick(3));
      arities_.push_back(arity);
      RelationId rel =
          schema.AddRelation("R" + std::to_string(r), arity).value();
      // Every relation gets a free method; wider ones also a keyed probe.
      free_methods_.push_back(
          schema.AddAccessMethod("free" + std::to_string(r), rel, {}, 2.0)
              .value());
      if (arity >= 2) {
        const int key = static_cast<int>(Pick(arity));
        keyed_methods_.push_back(
            schema
                .AddAccessMethod("keyed" + std::to_string(r), rel, {key}, 5.0)
                .value());
        keyed_key_pos_.push_back(key);
        keyed_arity_.push_back(arity);
      }
    }
  }

  Instance BuildInstance(const Schema& schema) {
    Instance instance(&schema);
    // Small value domain so keys collide: joins hit, dedups drop rows.
    const int domain = 4 + static_cast<int>(Pick(8));
    for (size_t r = 0; r < arities_.size(); ++r) {
      const int rows = static_cast<int>(Pick(30));
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
    int next_table = 0;
    // Seed the environment with 1-2 free accesses.
    const int num_free = 1 + static_cast<int>(Pick(2));
    for (int i = 0; i < num_free; ++i) {
      const size_t m = Pick(free_methods_.size());
      AccessCommand access;
      access.method = free_methods_[m];
      access.output_table = "t" + std::to_string(next_table++);
      access.output_columns = OutputColumns(arities_[m]);
      if (arities_[m] >= 2 && Coin(0.25)) {
        access.position_equalities = {{0, 1}};
      }
      if (Coin(0.25)) {
        access.position_constants = {
            {static_cast<int>(Pick(arities_[m])),
             Value::Int(static_cast<int64_t>(Pick(12)))}};
      }
      NoteTable(access.output_table, AttrsOf(access.output_columns));
      plan.commands.push_back(std::move(access));
    }
    // A few keyed accesses and middleware queries over what exists.
    const int extra = 2 + static_cast<int>(Pick(3));
    for (int i = 0; i < extra; ++i) {
      if (!keyed_methods_.empty() && Coin(0.6)) {
        const size_t k = Pick(keyed_methods_.size());
        AccessCommand access;
        access.method = keyed_methods_[k];
        // Bind one attribute of a random table to the key position; project
        // the input down to that attribute so the binding is unambiguous.
        const std::string& table = tables_[Pick(tables_.size())];
        const std::vector<std::string>& attrs = table_attrs_[table];
        const std::string attr = attrs[Pick(attrs.size())];
        access.input = RaExpr::Project(RaExpr::TempScan(table), {attr});
        access.input_binding = {{attr, keyed_key_pos_[k]}};
        access.output_table = "t" + std::to_string(next_table++);
        access.output_columns = OutputColumns(keyed_arity_[k]);
        NoteTable(access.output_table, AttrsOf(access.output_columns));
        plan.commands.push_back(std::move(access));
      } else {
        QueryCommand query;
        query.output_table = "t" + std::to_string(next_table++);
        TypedExpr e = RandomExpr(2);
        query.expr = e.expr;
        NoteTable(query.output_table, e.attrs);
        plan.commands.push_back(std::move(query));
      }
    }
    // Output: project the last table onto a subset of its attributes.
    const std::string& out = tables_.back();
    const std::vector<std::string>& attrs = table_attrs_[out];
    std::vector<std::string> picked;
    for (const std::string& a : attrs) {
      if (Coin(0.8)) picked.push_back(a);
    }
    if (picked.empty()) picked.push_back(attrs[0]);
    plan.output_table = out;
    plan.output_attrs = picked;
    return plan;
  }

 private:
  /// An expression plus the attribute list of its result, mirrored from the
  /// evaluator's rules so later commands can reference it safely.
  struct TypedExpr {
    RaExprPtr expr;
    std::vector<std::string> attrs;
  };

  size_t Pick(size_t n) { return static_cast<size_t>(prng_() % n); }
  bool Coin(double p) {
    return static_cast<double>(prng_() >> 11) * 0x1.0p-53 < p;
  }

  static std::vector<std::string> AttrsOf(
      const std::vector<std::pair<std::string, int>>& cols) {
    std::vector<std::string> attrs;
    attrs.reserve(cols.size());
    for (const auto& [attr, pos] : cols) attrs.push_back(attr);
    return attrs;
  }

  /// Output columns for an access over a relation of the given arity:
  /// every position at least once (attrs named p<pos>), occasionally a
  /// duplicated position under a second name.
  // GCC 12 emits a false-positive -Wrestrict from the inlined short-string
  // concatenation below at -O3 (same issue pragma'd in proof_search.cc).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
  std::vector<std::pair<std::string, int>> OutputColumns(int arity) {
    std::vector<std::pair<std::string, int>> cols;
    for (int p = 0; p < arity; ++p) {
      cols.emplace_back("p" + std::to_string(p), p);
    }
    if (Coin(0.2)) {
      const int p = static_cast<int>(Pick(arity));
      cols.emplace_back("d" + std::to_string(p), p);
    }
    return cols;
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  TypedExpr RandomExpr(int depth) {
    const std::string& table = tables_[Pick(tables_.size())];
    TypedExpr e{RaExpr::TempScan(table), table_attrs_[table]};
    if (depth <= 0) return e;
    switch (Pick(6)) {
      case 0: {  // project to a random non-empty subset
        std::vector<std::string> kept;
        for (const std::string& a : e.attrs) {
          if (Coin(0.7)) kept.push_back(a);
        }
        if (kept.empty()) kept.push_back(e.attrs[Pick(e.attrs.size())]);
        return TypedExpr{RaExpr::Project(e.expr, kept), kept};
      }
      case 1: {  // select attr = const or attr = attr
        RaExpr::Condition c;
        c.lhs = e.attrs[Pick(e.attrs.size())];
        if (e.attrs.size() > 1 && Coin(0.5)) {
          c.kind = RaExpr::Condition::Kind::kAttrEqAttr;
          c.rhs_attr = e.attrs[Pick(e.attrs.size())];
        } else {
          c.kind = RaExpr::Condition::Kind::kAttrEqConst;
          c.rhs_const = Value::Int(static_cast<int64_t>(Pick(12)));
        }
        return TypedExpr{RaExpr::Select(e.expr, {c}), e.attrs};
      }
      case 2: {  // natural join with another scan; attrs = left ++ extras
        const std::string& other = tables_[Pick(tables_.size())];
        std::vector<std::string> attrs = e.attrs;
        for (const std::string& a : table_attrs_[other]) {
          bool in_left = false;
          for (const std::string& l : e.attrs) {
            if (l == a) {
              in_left = true;
              break;
            }
          }
          if (!in_left) attrs.push_back(a);
        }
        return TypedExpr{RaExpr::Join(e.expr, RaExpr::TempScan(other)),
                         std::move(attrs)};
      }
      case 3: {  // union with itself (attr sets trivially agree)
        return TypedExpr{RaExpr::Union(e.expr, RaExpr::TempScan(table)),
                         e.attrs};
      }
      case 4: {  // difference against a selection of itself
        RaExpr::Condition c;
        c.kind = RaExpr::Condition::Kind::kAttrEqConst;
        c.lhs = e.attrs[Pick(e.attrs.size())];
        c.rhs_const = Value::Int(static_cast<int64_t>(Pick(12)));
        return TypedExpr{
            RaExpr::Difference(e.expr,
                               RaExpr::Select(RaExpr::TempScan(table), {c})),
            e.attrs};
      }
      default: {  // rename one attribute to a fresh name
        const std::string from = e.attrs[Pick(e.attrs.size())];
        const std::string to = "rn" + std::to_string(Pick(4));
        std::vector<std::string> attrs = e.attrs;
        for (std::string& a : attrs) {
          if (a == from) {
            a = to;  // rename hits the first occurrence
            break;
          }
        }
        return TypedExpr{RaExpr::Rename(e.expr, {{from, to}}),
                         std::move(attrs)};
      }
    }
  }

  void NoteTable(const std::string& name, std::vector<std::string> attrs) {
    if (table_attrs_.emplace(name, std::move(attrs)).second) {
      tables_.push_back(name);
    }
  }

  std::mt19937_64 prng_;
  std::vector<int> arities_;
  std::vector<AccessMethodId> free_methods_;
  std::vector<AccessMethodId> keyed_methods_;
  std::vector<int> keyed_key_pos_;
  std::vector<int> keyed_arity_;
  std::vector<std::string> tables_;
  std::unordered_map<std::string, std::vector<std::string>> table_attrs_;
};

/// Asserts bit-identical execution results: same schema, same rows in the
/// same order, same completeness and retry accounting.
inline void ExpectIdentical(const ExecutionResult& row,
                            const ExecutionResult& vec, int seed) {
  EXPECT_EQ(row.output.attrs(), vec.output.attrs()) << "seed " << seed;
  ASSERT_EQ(row.output.size(), vec.output.size()) << "seed " << seed;
  EXPECT_EQ(row.output.rows(), vec.output.rows()) << "seed " << seed;
  EXPECT_EQ(row.complete, vec.complete) << "seed " << seed;
  EXPECT_EQ(row.degraded_accesses, vec.degraded_accesses) << "seed " << seed;
  EXPECT_EQ(row.source_calls, vec.source_calls) << "seed " << seed;
  EXPECT_EQ(row.access_commands, vec.access_commands) << "seed " << seed;
  EXPECT_EQ(row.retry.attempts, vec.retry.attempts) << "seed " << seed;
  EXPECT_EQ(row.retry.failures, vec.retry.failures) << "seed " << seed;
  EXPECT_EQ(row.retry.retries, vec.retry.retries) << "seed " << seed;
  EXPECT_EQ(row.retry.backoff_schedule, vec.retry.backoff_schedule)
      << "seed " << seed;
  EXPECT_EQ(row.retry.deadline_abandons, vec.retry.deadline_abandons)
      << "seed " << seed;
}

}  // namespace exec_testing
}  // namespace lcp

#endif  // LCP_TESTS_EXEC_SCENARIO_H_
