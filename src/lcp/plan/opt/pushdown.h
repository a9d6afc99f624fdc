#ifndef LCP_PLAN_OPT_PUSHDOWN_H_
#define LCP_PLAN_OPT_PUSHDOWN_H_

#include "lcp/plan/opt/pass.h"

namespace lcp {
namespace plan_opt {

/// Selection pushdown into access commands: when an access output table is
/// scanned exactly once in the whole plan and that occurrence is
/// `Select(TempScan(T), conds)`, the conjuncts are translated through the
/// access's output-column mapping into `position_equalities`/
/// `position_constants` (filters the executor applies to raw returned
/// tuples, before the output mapping) and the Select node disappears.
/// Equivalent because each output attribute copies exactly one returned
/// position.
class PushdownPass : public PlanPass {
 public:
  const char* name() const override { return "pushdown"; }
  bool Run(Plan& plan, const Schema& schema, PassStats& stats) const override;
};

}  // namespace plan_opt
}  // namespace lcp

#endif  // LCP_PLAN_OPT_PUSHDOWN_H_
