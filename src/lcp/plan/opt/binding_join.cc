#include "lcp/plan/opt/binding_join.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "lcp/plan/opt/ir_util.h"

namespace lcp {
namespace plan_opt {

namespace {

using Attrs = std::vector<std::string>;
/// Per table, the attributes the commands after the walk's position (and
/// the plan output) read from it.
using Demand = std::unordered_map<std::string, Attrs>;
/// Attribute name → position of the access's relation it copies.
using ColumnPositions = std::vector<std::pair<std::string, int>>;

bool Has(const Attrs& attrs, const std::string& attr) {
  return std::find(attrs.begin(), attrs.end(), attr) != attrs.end();
}

void Add(Attrs& to, const std::string& attr) {
  if (!Has(to, attr)) to.push_back(attr);
}

void AddAll(Attrs& to, const Attrs& from) {
  for (const std::string& attr : from) Add(to, attr);
}

/// `T := scan(L) ⋈ scan(R)` (either operand order) where R views the
/// answers of `access`, whose bindings are read from L.
struct BindingJoin {
  size_t join = 0;
  /// Which join operand scans R.
  int view_side = 0;
  const AccessCommand* access = nullptr;
  /// R's defining expression, or null when R is the answer table itself.
  const RaExpr* view = nullptr;
};

bool IsScanJoin(const RaExprPtr& expr) {
  return expr != nullptr && expr->op() == RaExpr::Op::kJoin &&
         expr->children()[0]->op() == RaExpr::Op::kTempScan &&
         expr->children()[1]->op() == RaExpr::Op::kTempScan;
}

/// Index of the last command before `end` that produces `table`, or -1.
int ProducerBefore(const Plan& plan, size_t end, const std::string& table) {
  for (size_t i = end; i-- > 0;) {
    if (OutputTableOf(plan.commands[i]) == table) return static_cast<int>(i);
  }
  return -1;
}

/// The table under a chain of projections, renames and selections, or null.
const std::string* ViewedTable(const RaExpr& expr) {
  const RaExpr* e = &expr;
  while (e->op() == RaExpr::Op::kProject || e->op() == RaExpr::Op::kRename ||
         e->op() == RaExpr::Op::kSelect) {
    e = e->children()[0].get();
  }
  return e->op() == RaExpr::Op::kTempScan ? &e->table() : nullptr;
}

/// The table an access reads its bindings from: L for an input `scan(L)`
/// or `project[..](scan(L))`, else null.
const std::string* BindingTable(const AccessCommand& access) {
  const RaExpr* e = access.input.get();
  if (e == nullptr) return nullptr;
  if (e->op() == RaExpr::Op::kProject) e = e->children()[0].get();
  return e->op() == RaExpr::Op::kTempScan ? &e->table() : nullptr;
}

/// Whether operand `view_side` of the scan join at command `join` views the
/// answers of an access that reads its bindings from the other operand.
bool FindBindingJoin(const Plan& plan, size_t join, int view_side,
                     BindingJoin* found) {
  const RaExpr& expr = *std::get<QueryCommand>(plan.commands[join]).expr;
  const std::string& view_table = expr.children()[view_side]->table();
  const std::string& binding_table = expr.children()[1 - view_side]->table();
  const int view_index = ProducerBefore(plan, join, view_table);
  if (view_index < 0) return false;
  const Command& view_cmd = plan.commands[view_index];
  const AccessCommand* access = std::get_if<AccessCommand>(&view_cmd);
  const RaExpr* view = nullptr;
  if (access == nullptr) {
    view = std::get<QueryCommand>(view_cmd).expr.get();
    if (view == nullptr) return false;
    const std::string* answers = ViewedTable(*view);
    if (answers == nullptr) return false;
    const int access_index = ProducerBefore(plan, view_index, *answers);
    if (access_index < 0) return false;
    access = std::get_if<AccessCommand>(&plan.commands[access_index]);
    if (access == nullptr) return false;
  }
  const std::string* bindings = BindingTable(*access);
  if (bindings == nullptr || *bindings != binding_table) return false;
  *found = BindingJoin{join, view_side, access, view};
  return true;
}

/// Appends to `joins`, in command order, every scan join that reads the
/// binding table of the access its other operand views; with `joins` null,
/// stops at the first. Looks only at command shapes and table names.
bool FindBindingJoins(const Plan& plan, std::vector<BindingJoin>* joins) {
  bool found_any = false;
  for (size_t i = 0; i < plan.commands.size(); ++i) {
    const auto* query = std::get_if<QueryCommand>(&plan.commands[i]);
    if (query == nullptr || !IsScanJoin(query->expr)) continue;
    BindingJoin found;
    if (FindBindingJoin(plan, i, /*view_side=*/1, &found) ||
        FindBindingJoin(plan, i, /*view_side=*/0, &found)) {
      found_any = true;
      if (joins == nullptr) return true;
      joins->push_back(found);
    }
  }
  return found_any;
}

/// R's attributes, each with the position of the access's relation it
/// copies through the view's selections, renames and projections; nullopt
/// if some attribute cannot be traced or a name repeats.
std::optional<ColumnPositions> ViewPositions(const RaExpr* view,
                                             const AccessCommand& access) {
  if (view == nullptr || view->op() == RaExpr::Op::kTempScan) {
    return access.output_columns;
  }
  std::optional<ColumnPositions> child =
      ViewPositions(view->children()[0].get(), access);
  if (!child.has_value()) return std::nullopt;
  auto find = [&](const std::string& attr) {
    return std::find_if(child->begin(), child->end(),
                        [&](const auto& col) { return col.first == attr; });
  };
  ColumnPositions out;
  switch (view->op()) {
    case RaExpr::Op::kSelect:
      out = *child;
      break;
    case RaExpr::Op::kRename:
      // Renames apply at once, by the child's positions, as both engines
      // evaluate them.
      out = *child;
      for (const auto& [from, to] : view->renames()) {
        auto it = find(from);
        if (it == child->end()) return std::nullopt;
        out[it - child->begin()].first = to;
      }
      break;
    case RaExpr::Op::kProject:
      for (const std::string& attr : view->attrs()) {
        auto it = find(attr);
        if (it == child->end()) return std::nullopt;
        out.push_back(*it);
      }
      break;
    default:
      return std::nullopt;
  }
  for (size_t i = 0; i < out.size(); ++i) {
    for (size_t j = i + 1; j < out.size(); ++j) {
      if (out[i].first == out[j].first) return std::nullopt;
    }
  }
  return out;
}

/// Adds to `demand` what evaluating `expr` reads of the tables it scans
/// when its readers read `wanted` of its result: every attribute a
/// projection keeps or a selection tests, the sources of renames, the
/// attributes a natural join's operands share, and all of a union's or
/// difference's operands. False if an operand's attributes cannot be
/// inferred.
bool CollectDemand(const RaExpr& expr, const Attrs& wanted, const AttrEnv& env,
                   Demand& demand) {
  const auto child = [&expr](size_t i) -> const RaExpr& {
    return *expr.children()[i];
  };
  switch (expr.op()) {
    case RaExpr::Op::kTempScan:
      AddAll(demand[expr.table()], wanted);
      return true;
    case RaExpr::Op::kSingleton:
      return true;
    case RaExpr::Op::kProject:
      return CollectDemand(child(0), expr.attrs(), env, demand);
    case RaExpr::Op::kSelect: {
      Attrs read = wanted;
      for (const RaExpr::Condition& cond : expr.conditions()) {
        Add(read, cond.lhs);
        if (cond.kind == RaExpr::Condition::Kind::kAttrEqAttr) {
          Add(read, cond.rhs_attr);
        }
      }
      return CollectDemand(child(0), read, env, demand);
    }
    case RaExpr::Op::kRename: {
      Attrs read;
      for (const std::string& attr : wanted) {
        std::string source = attr;
        for (const auto& [from, to] : expr.renames()) {
          if (to == attr) source = from;
        }
        Add(read, source);
      }
      for (const auto& [from, to] : expr.renames()) Add(read, from);
      return CollectDemand(child(0), read, env, demand);
    }
    case RaExpr::Op::kJoin: {
      Result<Attrs> left = InferExprAttrs(child(0), env);
      Result<Attrs> right = InferExprAttrs(child(1), env);
      if (!left.ok() || !right.ok()) return false;
      Attrs left_read;
      Attrs right_read;
      for (const std::string& attr : *left) {
        if (Has(*right, attr)) {
          left_read.push_back(attr);
          right_read.push_back(attr);
        }
      }
      for (const std::string& attr : wanted) {
        if (Has(*left, attr)) Add(left_read, attr);
        if (Has(*right, attr)) Add(right_read, attr);
      }
      return CollectDemand(child(0), left_read, env, demand) &&
             CollectDemand(child(1), right_read, env, demand);
    }
    case RaExpr::Op::kUnion:
    case RaExpr::Op::kDifference: {
      Result<Attrs> left = InferExprAttrs(child(0), env);
      Result<Attrs> right = InferExprAttrs(child(1), env);
      if (!left.ok() || !right.ok()) return false;
      return CollectDemand(child(0), *left, env, demand) &&
             CollectDemand(child(1), *right, env, demand);
    }
  }
  return false;
}

/// Whether the binding join can become `T := scan(R)`: every attribute L
/// and R share is one A binds from L's attribute of that name at the
/// position R copies, and no reader of T reads an attribute of L that R
/// lacks.
bool Removable(const BindingJoin& bj, const Plan& plan, const AttrEnv& env,
               const Demand& demand) {
  const QueryCommand& query = std::get<QueryCommand>(plan.commands[bj.join]);
  const std::string& binding_table =
      query.expr->children()[1 - bj.view_side]->table();
  auto left = env.find(binding_table);
  if (left == env.end()) return false;
  std::optional<ColumnPositions> view = ViewPositions(bj.view, *bj.access);
  if (!view.has_value()) return false;
  const std::vector<std::pair<std::string, int>>& bound =
      bj.access->input_binding;
  for (const auto& column : *view) {
    if (Has(left->second, column.first) &&
        std::find(bound.begin(), bound.end(), column) == bound.end()) {
      return false;
    }
  }
  auto read = demand.find(query.output_table);
  if (read == demand.end()) return true;
  for (const std::string& attr : read->second) {
    const bool in_view =
        std::any_of(view->begin(), view->end(),
                    [&](const auto& column) { return column.first == attr; });
    if (!in_view && Has(left->second, attr)) return false;
  }
  return true;
}

}  // namespace

bool BindingJoinPass::MayChange(const Plan& plan) const {
  return FindBindingJoins(plan, nullptr);
}

bool BindingJoinPass::Run(Plan& plan, const Schema& /*schema*/,
                          PassStats& stats) const {
  // The precondition comes first: no attribute is inferred for a plan
  // without a binding join.
  std::vector<BindingJoin> joins;
  if (!FindBindingJoins(plan, &joins)) return false;

  AttrEnv env;
  for (const Command& cmd : plan.commands) NoteCommand(cmd, env);
  Demand demand;
  if (plan.output_attrs.empty()) {
    // A boolean output reads whether its table is empty: count it as
    // reading every attribute.
    auto out = env.find(plan.output_table);
    if (out == env.end()) return false;
    demand[plan.output_table] = out->second;
  } else {
    demand[plan.output_table] = plan.output_attrs;
  }

  // Last to first: every reader of T is visited before T is decided, and
  // a join removed here stops reading its binding table, which may free
  // the join that produced that table. Commands before the first binding
  // join decide nothing.
  bool changed = false;
  auto next = joins.rbegin();
  for (size_t i = plan.commands.size(); i-- > 0;) {
    Command& cmd = plan.commands[i];
    if (next->join == i) {
      if (Removable(*next, plan, env, demand)) {
        QueryCommand& query = std::get<QueryCommand>(cmd);
        RaExprPtr view_scan = query.expr->children()[next->view_side];
        query.expr = std::move(view_scan);
        ++stats.joins_removed;
        changed = true;
      }
      if (++next == joins.rend()) break;
    }
    bool collected = true;
    if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
      if (access->input != nullptr) {
        Attrs bound;
        for (const auto& [attr, pos] : access->input_binding) {
          Add(bound, attr);
        }
        collected = CollectDemand(*access->input, bound, env, demand);
      }
    } else if (const QueryCommand& query = std::get<QueryCommand>(cmd);
               query.expr != nullptr) {
      auto read = demand.find(query.output_table);
      const Attrs wanted = read != demand.end() ? read->second : Attrs{};
      collected = CollectDemand(*query.expr, wanted, env, demand);
    }
    // Demand on earlier tables is unknown from here on; the joins already
    // decided saw all of their readers.
    if (!collected) break;
  }
  if (changed) ++stats.applications;
  return changed;
}

}  // namespace plan_opt
}  // namespace lcp
