#ifndef LCP_PLAN_OPT_BINDING_JOIN_H_
#define LCP_PLAN_OPT_BINDING_JOIN_H_

#include "lcp/plan/opt/pass.h"

namespace lcp {
namespace plan_opt {

/// Binding-join elimination. After every access A the §4 translation
/// emits `T := scan(L) ⋈ scan(R)`: L is the table A's bindings were read
/// from (A's input is `scan(L)` or `project[..](scan(L))`), and R is a
/// project, rename or select of A's answer table. When every attribute L
/// and R share is, in R, an input position A binds from the attribute of
/// L with that name, each R row carries the shared values of the L row its
/// binding came from, so π_attrs(R)(L ⋈ R) = R. Degraded and truncated
/// accesses only drop R rows, so the equality holds for them too.
///
/// The join is then replaced by `T := scan(R)` when nothing reads an
/// attribute of T outside R: a backward pass collects, per table, the
/// attributes later commands and the plan output read — a natural join
/// reads the attributes its operands share plus what its readers read, a
/// union or difference reads all of both operands, a boolean plan output
/// reads all of its table. Walking last to first collapses a whole chain
/// in one run. No access command is added or removed, so plan cost cannot
/// move. The PassManager runs the pass last, and only on a plan that has
/// such a join (MayChange).
class BindingJoinPass : public PlanPass {
 public:
  const char* name() const override { return "binding_join"; }
  bool Run(Plan& plan, const Schema& schema, PassStats& stats) const override;
  /// Whether some join reads the binding table of the access its other
  /// operand views, from command shapes and table names alone.
  bool MayChange(const Plan& plan) const override;
};

}  // namespace plan_opt
}  // namespace lcp

#endif  // LCP_PLAN_OPT_BINDING_JOIN_H_
