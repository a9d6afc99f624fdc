#ifndef LCP_PLAN_OPT_PASS_MANAGER_H_
#define LCP_PLAN_OPT_PASS_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "lcp/base/result.h"
#include "lcp/plan/cost.h"
#include "lcp/plan/opt/pass.h"
#include "lcp/plan/plan.h"
#include "lcp/schema/schema.h"

namespace lcp {
namespace plan_opt {

/// Aggregate result of one Optimize() call.
struct OptimizeStats {
  /// One entry per pass, in pipeline order.
  std::vector<PassStats> passes;
  bool changed = false;
  double cost_before = 0.0;
  double cost_after = 0.0;
  int commands_before = 0;
  int commands_after = 0;

  /// Multi-line human-readable report (used by the service demo).
  std::string ToString() const;
};

/// Runs the pass pipeline once over a plan: the selection fold
/// (PushdownPass), join reorder, then binding-join elimination. Every pass
/// output is re-checked with ValidatePlan and re-costed under `cost`; an
/// output that fails validation or costs more than its input is discarded
/// (counted in PassStats::rejected), so Optimize never returns a plan that
/// is invalid or costlier than its input. Errors only on an input plan that
/// itself fails validation. Stateless after construction: one const
/// PassManager is safely shared across threads.
class PassManager {
 public:
  PassManager();

  Result<Plan> Optimize(const Plan& plan, const Schema& schema,
                        const CostFunction& cost,
                        OptimizeStats* stats = nullptr) const;

 private:
  /// Run once each, in order.
  std::vector<std::unique_ptr<const PlanPass>> passes_;
};

}  // namespace plan_opt
}  // namespace lcp

#endif  // LCP_PLAN_OPT_PASS_MANAGER_H_
