#include "lcp/plan/opt/ir_util.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "lcp/base/strings.h"

namespace lcp {
namespace plan_opt {

namespace {

bool Has(const std::vector<std::string>& attrs, const std::string& attr) {
  return std::find(attrs.begin(), attrs.end(), attr) != attrs.end();
}

}  // namespace

Result<std::vector<std::string>> InferExprAttrs(const RaExpr& expr,
                                                const AttrEnv& env) {
  switch (expr.op()) {
    case RaExpr::Op::kTempScan: {
      auto it = env.find(expr.table());
      if (it == env.end()) {
        return InvalidArgumentError(
            StrCat("scan of undefined temporary table ", expr.table()));
      }
      return it->second;
    }
    case RaExpr::Op::kSingleton:
      return std::vector<std::string>{};
    case RaExpr::Op::kProject: {
      LCP_ASSIGN_OR_RETURN(std::vector<std::string> child,
                           InferExprAttrs(*expr.children()[0], env));
      for (const std::string& attr : expr.attrs()) {
        if (!Has(child, attr)) {
          return InvalidArgumentError(
              StrCat("projection references missing attribute ", attr));
        }
      }
      return expr.attrs();
    }
    case RaExpr::Op::kSelect:
      return InferExprAttrs(*expr.children()[0], env);
    case RaExpr::Op::kJoin: {
      LCP_ASSIGN_OR_RETURN(std::vector<std::string> left,
                           InferExprAttrs(*expr.children()[0], env));
      LCP_ASSIGN_OR_RETURN(std::vector<std::string> right,
                           InferExprAttrs(*expr.children()[1], env));
      for (const std::string& attr : right) {
        if (!Has(left, attr)) left.push_back(attr);
      }
      return left;
    }
    case RaExpr::Op::kUnion:
    case RaExpr::Op::kDifference:
      return InferExprAttrs(*expr.children()[0], env);
    case RaExpr::Op::kRename: {
      LCP_ASSIGN_OR_RETURN(std::vector<std::string> child,
                           InferExprAttrs(*expr.children()[0], env));
      for (const auto& [from, to] : expr.renames()) {
        auto it = std::find(child.begin(), child.end(), from);
        if (it != child.end()) *it = to;
      }
      return child;
    }
  }
  return InternalError("unreachable RA op");
}

void NoteCommand(const Command& cmd, AttrEnv& env) {
  if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
    std::vector<std::string> attrs;
    attrs.reserve(access->output_columns.size());
    for (const auto& [attr, pos] : access->output_columns) {
      attrs.push_back(attr);
    }
    env[access->output_table] = std::move(attrs);
  } else {
    const QueryCommand& query = std::get<QueryCommand>(cmd);
    if (query.expr == nullptr) return;
    Result<std::vector<std::string>> attrs = InferExprAttrs(*query.expr, env);
    if (attrs.ok()) env[query.output_table] = std::move(attrs).value();
  }
}

int CountTableReferences(const Plan& plan, const std::string& table) {
  int count = 0;
  for (const Command& cmd : plan.commands) {
    const auto* access = std::get_if<AccessCommand>(&cmd);
    const RaExprPtr& expr =
        access != nullptr ? access->input : std::get<QueryCommand>(cmd).expr;
    if (expr == nullptr) continue;
    for (const std::string& name : expr->ReferencedTables()) {
      if (name == table) ++count;
    }
  }
  return count;
}

}  // namespace plan_opt
}  // namespace lcp
