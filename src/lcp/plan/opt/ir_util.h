#ifndef LCP_PLAN_OPT_IR_UTIL_H_
#define LCP_PLAN_OPT_IR_UTIL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "lcp/base/result.h"
#include "lcp/plan/plan.h"
#include "lcp/ra/expr.h"

namespace lcp {
namespace plan_opt {

/// Attribute environment while walking a plan front-to-back: temp-table name
/// → attribute list. Passes maintain it incrementally with NoteCommand.
using AttrEnv = std::unordered_map<std::string, std::vector<std::string>>;

/// Attribute list a command's output table carries: the access's output
/// column names, or the inferred attribute set of the query expression.
/// Mirrors the inference rules of plan/validate.cc; fails on the same
/// inconsistencies.
Result<std::vector<std::string>> InferExprAttrs(const RaExpr& expr,
                                                const AttrEnv& env);

/// Records `cmd`'s output table and attributes into `env` (no-op on
/// inference failure — passes treat such plans as untransformable).
void NoteCommand(const Command& cmd, AttrEnv& env);

/// A canonical structural serialization of a whole command, *excluding* its
/// output table name: equal keys mean the two commands produce identical
/// tables (same attributes, same rows) over the same environment. Binding
/// lists and position filters are order-normalized; output columns are kept
/// in order (they fix the output schema). Temp table names are serialized
/// as-is, so callers canonicalize references (SubstituteTables) before
/// keying when they want equality modulo temp-table renaming.
std::string CommandKey(const Command& cmd);

/// Returns `expr` with every TempScan of a table in `renames` redirected to
/// its replacement. Shares unchanged subtrees with the input.
RaExprPtr SubstituteTables(
    const RaExprPtr& expr,
    const std::unordered_map<std::string, std::string>& renames);

/// Appends the names of all temp tables scanned by `cmd`'s expressions.
void AppendReferencedTables(const Command& cmd, std::vector<std::string>& out);

/// Number of TempScan occurrences of `table` across all commands of `plan`
/// (the plan output table itself is not counted).
int CountTableReferences(const Plan& plan, const std::string& table);

const std::string& OutputTableOf(const Command& cmd);

}  // namespace plan_opt
}  // namespace lcp

#endif  // LCP_PLAN_OPT_IR_UTIL_H_
