#include "lcp/plan/plan.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "lcp/base/strings.h"

namespace lcp {

const char* PlanLanguageName(PlanLanguage lang) {
  switch (lang) {
    case PlanLanguage::kSpj:
      return "SPJ";
    case PlanLanguage::kUspj:
      return "USPJ";
    case PlanLanguage::kUspjNeg:
      return "USPJ^neg";
    case PlanLanguage::kRa:
      return "RA";
  }
  return "?";
}

const std::string& OutputTableOf(const Command& cmd) {
  if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
    return access->output_table;
  }
  return std::get<QueryCommand>(cmd).output_table;
}

int Plan::NumAccessCommands() const {
  int count = 0;
  for (const Command& cmd : commands) {
    if (std::holds_alternative<AccessCommand>(cmd)) ++count;
  }
  return count;
}

PlanLanguage Plan::Language() const {
  bool uses_union = false;
  bool uses_difference = false;
  auto scan = [&](const RaExprPtr& expr) {
    if (expr == nullptr) return;
    if (expr->Uses(RaExpr::Op::kUnion)) uses_union = true;
    if (expr->Uses(RaExpr::Op::kDifference)) uses_difference = true;
  };
  for (const Command& cmd : commands) {
    if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
      scan(access->input);
    } else {
      scan(std::get<QueryCommand>(cmd).expr);
    }
  }
  if (uses_difference) return PlanLanguage::kUspjNeg;
  if (uses_union) return PlanLanguage::kUspj;
  return PlanLanguage::kSpj;
}

std::string Plan::ToString(const Schema& schema) const {
  std::ostringstream os;
  for (const Command& cmd : commands) {
    if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
      const AccessMethod& method = schema.access_method(access->method);
      os << access->output_table << " <- " << method.name << " <- ";
      if (access->input != nullptr) {
        os << access->input->ToString();
      } else if (!access->constant_inputs.empty()) {
        std::vector<std::string> consts;
        for (const auto& [pos, value] : access->constant_inputs) {
          consts.push_back(StrCat("pos", pos, "=", value.ToString()));
        }
        os << "const{" << StrJoin(consts, ",") << "}";
      } else {
        os << "{}";
      }
      if (!access->position_equalities.empty() ||
          !access->position_constants.empty()) {
        os << " where";
        for (const auto& [a, b] : access->position_equalities) {
          os << " pos" << a << "=pos" << b;
        }
        for (const auto& [p, v] : access->position_constants) {
          os << " pos" << p << "=" << v.ToString();
        }
      }
      std::vector<std::string> cols;
      for (const auto& [attr, pos] : access->output_columns) {
        cols.push_back(StrCat(attr, ":", pos));
      }
      os << " out(" << StrJoin(cols, ",") << ")";
      os << "\n";
    } else {
      const QueryCommand& query = std::get<QueryCommand>(cmd);
      os << query.output_table << " := " << query.expr->ToString() << "\n";
    }
  }
  os << "output: " << output_table;
  if (!output_attrs.empty()) os << "[" << StrJoin(output_attrs, ",") << "]";
  os << "\n";
  return os.str();
}

namespace {

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
          c.rhs_const.AppendKey(key);
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

/// The canonical structural form of one command, compared by operator==:
/// binding lists and position filters are order-normalized; output columns
/// are kept in order (they fix the output schema).
std::string CommandKey(const Command& cmd) {
  std::string key = StrCat(OutputTableOf(cmd), "<-");
  if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
    StrAppend(&key, "A", access->method, "|");
    if (access->input != nullptr) KeyExpr(key, *access->input);
    key += "|";
    // Binding lists and position filters are sets semantically: normalize
    // their order so permuted but identical accesses compare equal.
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
      value.AppendKey(key);
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
      value.AppendKey(key);
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

}  // namespace

bool operator==(const Plan& a, const Plan& b) {
  if (a.output_table != b.output_table || a.output_attrs != b.output_attrs ||
      a.commands.size() != b.commands.size()) {
    return false;
  }
  for (size_t i = 0; i < a.commands.size(); ++i) {
    if (CommandKey(a.commands[i]) != CommandKey(b.commands[i])) {
      return false;
    }
  }
  return true;
}

uint64_t PlanStructuralHash(const Plan& plan) {
  // FNV-1a over the same canonical serialization operator== compares, with a
  // splitmix finisher; equal plans hash equal by construction.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& piece) {
    for (unsigned char c : piece) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // separator so adjacent pieces cannot alias
    h *= 0x100000001b3ULL;
  };
  for (const Command& cmd : plan.commands) mix(CommandKey(cmd));
  mix(plan.output_table);
  for (const std::string& attr : plan.output_attrs) mix(attr);
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace lcp
