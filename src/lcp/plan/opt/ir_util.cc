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

/// Serializes one value unambiguously (type tag + payload length).
void KeyValue(std::string& key, const Value& v) {
  if (v.is_int()) {
    StrAppend(&key, "i", v.AsInt());
  } else {
    StrAppend(&key, "s", v.AsString().size(), ":", v.AsString());
  }
}

void KeyName(std::string& key, const std::string& name) {
  StrAppend(&key, name.size(), ":", name);
}

void KeyExpr(std::string& key, const RaExpr& expr) {
  switch (expr.op()) {
    case RaExpr::Op::kTempScan:
      key += "T(";
      KeyName(key, expr.table());
      key += ")";
      return;
    case RaExpr::Op::kSingleton:
      key += "1";
      return;
    case RaExpr::Op::kProject:
      key += "P[";
      for (const std::string& a : expr.attrs()) KeyName(key, a);
      key += "](";
      KeyExpr(key, *expr.children()[0]);
      key += ")";
      return;
    case RaExpr::Op::kSelect: {
      key += "S[";
      for (const RaExpr::Condition& c : expr.conditions()) {
        if (c.kind == RaExpr::Condition::Kind::kAttrEqAttr) {
          key += "a";
          KeyName(key, c.lhs);
          KeyName(key, c.rhs_attr);
        } else {
          key += "c";
          KeyName(key, c.lhs);
          KeyValue(key, c.rhs_const);
        }
      }
      key += "](";
      KeyExpr(key, *expr.children()[0]);
      key += ")";
      return;
    }
    case RaExpr::Op::kJoin:
    case RaExpr::Op::kUnion:
    case RaExpr::Op::kDifference:
      key += expr.op() == RaExpr::Op::kJoin
                 ? "J("
                 : expr.op() == RaExpr::Op::kUnion ? "U(" : "D(";
      KeyExpr(key, *expr.children()[0]);
      key += ",";
      KeyExpr(key, *expr.children()[1]);
      key += ")";
      return;
    case RaExpr::Op::kRename:
      key += "R[";
      for (const auto& [from, to] : expr.renames()) {
        KeyName(key, from);
        KeyName(key, to);
      }
      key += "](";
      KeyExpr(key, *expr.children()[0]);
      key += ")";
      return;
  }
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

std::string CommandKey(const Command& cmd) {
  std::string key;
  if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
    StrAppend(&key, "A", access->method, "|");
    if (access->input != nullptr) KeyExpr(key, *access->input);
    key += "|";
    // Binding lists and position filters are sets semantically: normalize
    // their order so permuted but identical accesses collapse.
    auto bindings = access->input_binding;
    std::sort(bindings.begin(), bindings.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second < b.second
                                            : a.first < b.first;
              });
    for (const auto& [attr, pos] : bindings) {
      StrAppend(&key, pos, "=");
      KeyName(key, attr);
    }
    key += "|";
    auto constants = access->constant_inputs;
    std::sort(constants.begin(), constants.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second < b.second;
              });
    for (const auto& [pos, value] : constants) {
      StrAppend(&key, pos, "=");
      KeyValue(key, value);
    }
    key += "|";
    std::vector<std::pair<int, int>> equalities;
    for (const auto& [a, b] : access->position_equalities) {
      equalities.emplace_back(std::min(a, b), std::max(a, b));
    }
    std::sort(equalities.begin(), equalities.end());
    for (const auto& [a, b] : equalities) StrAppend(&key, a, "~", b, ";");
    key += "|";
    auto pos_constants = access->position_constants;
    std::sort(pos_constants.begin(), pos_constants.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second < b.second;
              });
    for (const auto& [pos, value] : pos_constants) {
      StrAppend(&key, pos, "=");
      KeyValue(key, value);
    }
    key += "|";
    // Output columns stay in order: they fix the output table's schema.
    for (const auto& [attr, pos] : access->output_columns) {
      KeyName(key, attr);
      StrAppend(&key, ":", pos, ";");
    }
  } else {
    const QueryCommand& query = std::get<QueryCommand>(cmd);
    key += "Q|";
    if (query.expr != nullptr) KeyExpr(key, *query.expr);
  }
  return key;
}

RaExprPtr SubstituteTables(
    const RaExprPtr& expr,
    const std::unordered_map<std::string, std::string>& renames) {
  if (expr == nullptr || renames.empty()) return expr;
  switch (expr->op()) {
    case RaExpr::Op::kTempScan: {
      auto it = renames.find(expr->table());
      return it == renames.end() ? expr : RaExpr::TempScan(it->second);
    }
    case RaExpr::Op::kSingleton:
      return expr;
    default: {
      std::vector<RaExprPtr> children;
      children.reserve(expr->children().size());
      bool changed = false;
      for (const RaExprPtr& child : expr->children()) {
        RaExprPtr substituted = SubstituteTables(child, renames);
        changed = changed || substituted != child;
        children.push_back(std::move(substituted));
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
          return RaExpr::Difference(std::move(children[0]),
                                    std::move(children[1]));
        case RaExpr::Op::kRename:
          return RaExpr::Rename(std::move(children[0]), expr->renames());
        default:
          return expr;  // kTempScan/kSingleton handled above.
      }
    }
  }
}

void AppendReferencedTables(const Command& cmd,
                            std::vector<std::string>& out) {
  const RaExprPtr* expr = nullptr;
  if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
    expr = &access->input;
  } else {
    expr = &std::get<QueryCommand>(cmd).expr;
  }
  if (*expr == nullptr) return;
  std::vector<std::string> referenced = (*expr)->ReferencedTables();
  out.insert(out.end(), referenced.begin(), referenced.end());
}

int CountTableReferences(const Plan& plan, const std::string& table) {
  int count = 0;
  std::vector<std::string> referenced;
  for (const Command& cmd : plan.commands) {
    referenced.clear();
    AppendReferencedTables(cmd, referenced);
    for (const std::string& name : referenced) {
      if (name == table) ++count;
    }
  }
  return count;
}

const std::string& OutputTableOf(const Command& cmd) {
  if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
    return access->output_table;
  }
  return std::get<QueryCommand>(cmd).output_table;
}

}  // namespace plan_opt
}  // namespace lcp
