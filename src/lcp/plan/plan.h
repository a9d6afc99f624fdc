#ifndef LCP_PLAN_PLAN_H_
#define LCP_PLAN_PLAN_H_

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "lcp/logic/ids.h"
#include "lcp/logic/value.h"
#include "lcp/ra/expr.h"
#include "lcp/schema/schema.h"

namespace lcp {

/// An access command T ← mt ← E (§2): evaluate the input expression E over
/// the temporary tables, feed each resulting tuple into access method `mt`,
/// and collect the returned source tuples into `output_table`.
struct AccessCommand {
  AccessMethodId method = kInvalidAccessMethod;

  /// Input expression; null for an input-free access (the paper's ∅
  /// convention) or when every input is supplied by `constant_inputs`.
  RaExprPtr input;
  /// b_in: pairs (input attribute of E, input position of mt).
  std::vector<std::pair<std::string, int>> input_binding;
  /// Input positions bound to schema constants rather than columns of E.
  std::vector<std::pair<int, Value>> constant_inputs;

  std::string output_table;
  /// b_out: output columns, each (attribute name, position of R it copies).
  /// A position may feed several attributes (duplication).
  std::vector<std::pair<std::string, int>> output_columns;
  /// Selections applied to returned tuples before the output mapping:
  /// position = position and position = constant (these arise from repeated
  /// chase constants / schema constants in exposed facts, §4).
  std::vector<std::pair<int, int>> position_equalities;
  std::vector<std::pair<int, Value>> position_constants;
};

/// A middleware query command T := E (§2).
struct QueryCommand {
  std::string output_table;
  RaExprPtr expr;
};

using Command = std::variant<AccessCommand, QueryCommand>;

/// The temporary table `cmd` writes.
const std::string& OutputTableOf(const Command& cmd);

/// Plan language classification (§2): SPJ ⊂ USPJ ⊂ USPJ¬ ⊂ RA.
enum class PlanLanguage { kSpj, kUspj, kUspjNeg, kRa };

const char* PlanLanguageName(PlanLanguage lang);

/// An RA-plan (§2): a sequence of access and middleware query commands with
/// a distinguished output table, whose listed attributes correspond
/// position-wise to the query's free variables.
struct Plan {
  std::vector<Command> commands;
  std::string output_table;
  std::vector<std::string> output_attrs;

  int NumAccessCommands() const;

  /// The most restrictive language the plan's expressions fall into.
  PlanLanguage Language() const;

  /// Human-readable listing, one command per line.
  std::string ToString(const Schema& schema) const;
};

/// Structural plan equality: same command sequence (each command compared by
/// its canonical structural key, so semantically-equal permutations of
/// binding lists and position filters compare equal), same per-command
/// output tables, and the same plan output table and attribute list. Two
/// equal plans evaluate identically over any source. This is what the
/// serialization round-trip and snapshot-equivalence tests assert, instead
/// of comparing ToString dumps.
bool operator==(const Plan& a, const Plan& b);
inline bool operator!=(const Plan& a, const Plan& b) { return !(a == b); }

/// A 64-bit digest of the structural form compared by operator==: equal
/// plans hash equal. Suitable for dedup tables and cheap inequality checks.
uint64_t PlanStructuralHash(const Plan& plan);

}  // namespace lcp

#endif  // LCP_PLAN_PLAN_H_
