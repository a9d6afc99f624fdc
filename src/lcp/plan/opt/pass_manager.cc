#include "lcp/plan/opt/pass_manager.h"

#include <sstream>
#include <utility>

#include "lcp/plan/opt/binding_join.h"
#include "lcp/plan/opt/join_reorder.h"
#include "lcp/plan/opt/pushdown.h"
#include "lcp/plan/validate.h"

namespace lcp {
namespace plan_opt {

namespace {

/// Slack for cost comparisons: the guard is "not worse", and the shipped
/// cost functions are sums of doubles, so exact equality is too strict.
constexpr double kCostEpsilon = 1e-9;

}  // namespace

std::string OptimizeStats::ToString() const {
  std::ostringstream os;
  os << "optimizer: cost " << cost_before << " -> " << cost_after
     << ", commands " << commands_before << " -> " << commands_after << "\n";
  for (const PassStats& pass : passes) {
    os << "  [" << pass.pass << "] applications=" << pass.applications
       << " folds=" << pass.selections_folded
       << " reordered=" << pass.joins_reordered
       << " joins_removed=" << pass.joins_removed
       << " rejected=" << pass.rejected << " cost " << pass.cost_before
       << " -> " << pass.cost_after << "\n";
  }
  return os.str();
}

PassManager::PassManager() {
  // Binding-join elimination last: one last-to-first walk over the final
  // command set collapses a whole chain of binding joins. A plan read off
  // a proof (§4) has no repeated access, unread command or over-wide access
  // input to clean up (DESIGN.md §11), and one run of each pass leaves
  // nothing for a second run.
  passes_.push_back(std::make_unique<PushdownPass>());
  passes_.push_back(std::make_unique<JoinReorderPass>());
  passes_.push_back(std::make_unique<BindingJoinPass>());
}

Result<Plan> PassManager::Optimize(const Plan& plan, const Schema& schema,
                                   const CostFunction& cost,
                                   OptimizeStats* stats) const {
  LCP_RETURN_IF_ERROR(ValidatePlan(plan, schema));

  OptimizeStats local;
  OptimizeStats& out = stats != nullptr ? *stats : local;
  out = OptimizeStats{};
  out.cost_before = cost.Cost(plan);
  out.commands_before = static_cast<int>(plan.commands.size());
  out.passes.reserve(passes_.size());

  Plan current = plan;
  double current_cost = out.cost_before;
  for (const auto& pass : passes_) {
    PassStats& ps = out.passes.emplace_back();
    ps.pass = pass->name();
    // Per-pass cost attribution: (cost_before - cost_after) is the cost
    // drop this pass is responsible for, not the pipeline total.
    ps.cost_before = current_cost;
    ps.cost_after = current_cost;
    if (!pass->MayChange(current)) continue;
    Plan candidate = current;
    PassStats run = ps;
    if (!pass->Run(candidate, schema, run)) continue;
    const double candidate_cost = cost.Cost(candidate);
    if (!ValidatePlan(candidate, schema).ok() ||
        candidate_cost > current_cost + kCostEpsilon) {
      ps.rejected = 1;
      continue;
    }
    current = std::move(candidate);
    current_cost = candidate_cost;
    ps = std::move(run);
    ps.cost_after = current_cost;
    out.changed = true;
  }

  out.cost_after = current_cost;
  out.commands_after = static_cast<int>(current.commands.size());
  return current;
}

}  // namespace plan_opt
}  // namespace lcp
