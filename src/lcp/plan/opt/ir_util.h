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

/// Number of TempScan occurrences of `table` across all commands of `plan`
/// (the plan output table itself is not counted).
int CountTableReferences(const Plan& plan, const std::string& table);

}  // namespace plan_opt
}  // namespace lcp

#endif  // LCP_PLAN_OPT_IR_UTIL_H_
