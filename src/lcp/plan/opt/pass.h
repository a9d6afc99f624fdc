#ifndef LCP_PLAN_OPT_PASS_H_
#define LCP_PLAN_OPT_PASS_H_

#include <string>

#include "lcp/plan/plan.h"
#include "lcp/schema/schema.h"

namespace lcp {
namespace plan_opt {

/// Per-pass counters of one Optimize() call. Counters that don't apply to a
/// pass stay zero.
struct PassStats {
  std::string pass;

  /// Commands the pass rewrote; binding-join elimination counts 1 for a
  /// run that changed the plan (joins_removed counts its commands).
  int applications = 0;
  /// Post-access Select conjuncts folded into position filters.
  int selections_folded = 0;
  /// Join chains rebuilt in a different leaf order.
  int joins_reordered = 0;
  /// Joins of an access's answers back onto its binding table, replaced by
  /// a scan of the answers.
  int joins_removed = 0;
  /// Pass outputs discarded by the manager (failed validation or raised
  /// cost). Zero under the simple cost; under the cardinality cost a fold
  /// can raise the estimate and is discarded (DESIGN.md §11).
  int rejected = 0;

  double cost_before = 0.0;
  double cost_after = 0.0;
};

/// A plan-to-plan rewrite. Implementations must be stateless (a const pass
/// is shared across threads by the serving path) and may assume the input
/// plan passed ValidatePlan. Returns true iff `plan` was modified; the
/// PassManager re-validates and re-costs every modified output and discards
/// regressions, so passes should be correct but need not be paranoid.
class PlanPass {
 public:
  virtual ~PlanPass() = default;
  virtual const char* name() const = 0;
  virtual bool Run(Plan& plan, const Schema& schema, PassStats& stats) const = 0;
  /// A cheap read-only test the PassManager makes before it copies the plan
  /// for Run: false promises that Run would change nothing.
  virtual bool MayChange(const Plan& /*plan*/) const { return true; }
};

}  // namespace plan_opt
}  // namespace lcp

#endif  // LCP_PLAN_OPT_PASS_H_
