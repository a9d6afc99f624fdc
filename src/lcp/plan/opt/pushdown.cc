#include "lcp/plan/opt/pushdown.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "lcp/plan/opt/ir_util.h"

namespace lcp {
namespace plan_opt {

namespace {

/// Rewrites the unique `Select(TempScan(table), conds)` node, if present,
/// to a bare `TempScan(table)`, returning the folded conjuncts through
/// `folded`. Leaves `expr` untouched (returns it unchanged) when the
/// pattern does not occur in this tree.
RaExprPtr FoldSelectOverScan(const RaExprPtr& expr, const std::string& table,
                             std::vector<RaExpr::Condition>* folded) {
  if (expr == nullptr) return expr;
  if (expr->op() == RaExpr::Op::kSelect &&
      expr->children()[0]->op() == RaExpr::Op::kTempScan &&
      expr->children()[0]->table() == table) {
    *folded = expr->conditions();
    return expr->children()[0];
  }
  std::vector<RaExprPtr> children;
  children.reserve(expr->children().size());
  bool changed = false;
  for (const RaExprPtr& child : expr->children()) {
    RaExprPtr rewritten = FoldSelectOverScan(child, table, folded);
    changed = changed || rewritten != child;
    children.push_back(std::move(rewritten));
  }
  if (!changed) return expr;
  switch (expr->op()) {
    case RaExpr::Op::kProject:
      return RaExpr::Project(std::move(children[0]), expr->attrs());
    case RaExpr::Op::kSelect:
      return RaExpr::Select(std::move(children[0]), expr->conditions());
    case RaExpr::Op::kJoin:
      return RaExpr::Join(std::move(children[0]), std::move(children[1]));
    case RaExpr::Op::kUnion:
      return RaExpr::Union(std::move(children[0]), std::move(children[1]));
    case RaExpr::Op::kDifference:
      return RaExpr::Difference(std::move(children[0]), std::move(children[1]));
    case RaExpr::Op::kRename:
      return RaExpr::Rename(std::move(children[0]), expr->renames());
    default:
      return expr;
  }
}

RaExprPtr* CommandExpr(Command& cmd) {
  if (auto* access = std::get_if<AccessCommand>(&cmd)) return &access->input;
  return &std::get<QueryCommand>(cmd).expr;
}

/// Translates Select conjuncts over an access output table into position
/// filters on the access itself. Returns false (leaving `access`
/// unmodified) if any attribute fails to map.
bool MapConditionsToPositions(const std::vector<RaExpr::Condition>& conds,
                              AccessCommand& access) {
  std::unordered_map<std::string, int> attr_pos;
  for (const auto& [attr, pos] : access.output_columns) attr_pos[attr] = pos;
  std::vector<std::pair<int, int>> equalities;
  std::vector<std::pair<int, Value>> constants;
  for (const RaExpr::Condition& cond : conds) {
    auto lhs = attr_pos.find(cond.lhs);
    if (lhs == attr_pos.end()) return false;
    if (cond.kind == RaExpr::Condition::Kind::kAttrEqAttr) {
      auto rhs = attr_pos.find(cond.rhs_attr);
      if (rhs == attr_pos.end()) return false;
      equalities.emplace_back(lhs->second, rhs->second);
    } else {
      constants.emplace_back(lhs->second, cond.rhs_const);
    }
  }
  access.position_equalities.insert(access.position_equalities.end(),
                                    equalities.begin(), equalities.end());
  access.position_constants.insert(access.position_constants.end(),
                                   constants.begin(), constants.end());
  return true;
}

}  // namespace

bool PushdownPass::Run(Plan& plan, const Schema& /*schema*/,
                       PassStats& stats) const {
  bool changed = false;
  for (Command& producer : plan.commands) {
    auto* access = std::get_if<AccessCommand>(&producer);
    if (access == nullptr) continue;
    const std::string& table = access->output_table;
    if (table == plan.output_table) continue;
    if (CountTableReferences(plan, table) != 1) continue;
    for (Command& consumer : plan.commands) {
      RaExprPtr* expr = CommandExpr(consumer);
      if (*expr == nullptr) continue;
      std::vector<RaExpr::Condition> folded;
      RaExprPtr rewritten = FoldSelectOverScan(*expr, table, &folded);
      if (folded.empty()) continue;
      if (!MapConditionsToPositions(folded, *access)) break;
      *expr = std::move(rewritten);
      stats.selections_folded += static_cast<int>(folded.size());
      ++stats.applications;
      changed = true;
      break;  // The unique reference was handled.
    }
  }
  return changed;
}

}  // namespace plan_opt
}  // namespace lcp
