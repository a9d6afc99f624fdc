#include "lcp/plan/opt/pass_manager.h"

#include <sstream>
#include <utility>

#include "lcp/plan/opt/binding_join.h"
#include "lcp/plan/opt/cse.h"
#include "lcp/plan/opt/dce.h"
#include "lcp/plan/opt/join_reorder.h"
#include "lcp/plan/opt/pushdown.h"
#include "lcp/plan/validate.h"

namespace lcp {
namespace plan_opt {

namespace {

/// Slack for cost comparisons: the guard is "not worse", and the shipped
/// cost functions are sums of doubles, so exact equality is too strict.
constexpr double kCostEpsilon = 1e-9;

/// Upper bound on fixpoint iterations; each runs every pass once.
constexpr int kMaxFixpointIterations = 4;

void Accumulate(PassStats& total, const PassStats& delta) {
  total.applications += delta.applications;
  total.commands_removed += delta.commands_removed;
  total.access_commands_removed += delta.access_commands_removed;
  total.expressions_rewritten += delta.expressions_rewritten;
  total.selections_folded += delta.selections_folded;
  total.inputs_narrowed += delta.inputs_narrowed;
  total.joins_reordered += delta.joins_reordered;
  total.joins_removed += delta.joins_removed;
  total.rejected += delta.rejected;
}

}  // namespace

std::string OptimizeStats::ToString() const {
  std::ostringstream os;
  os << "optimizer: cost " << cost_before << " -> " << cost_after
     << ", commands " << commands_before << " -> " << commands_after
     << " (access " << access_commands_before << " -> "
     << access_commands_after << "), " << fixpoint_iterations
     << " fixpoint iteration(s)\n";
  for (const PassStats& pass : passes) {
    os << "  [" << pass.pass << "] applications=" << pass.applications
       << " removed=" << pass.commands_removed
       << " (access=" << pass.access_commands_removed << ")"
       << " rewrites=" << pass.expressions_rewritten
       << " folds=" << pass.selections_folded
       << " narrowed=" << pass.inputs_narrowed
       << " reordered=" << pass.joins_reordered
       << " joins_removed=" << pass.joins_removed
       << " rejected=" << pass.rejected << " cost " << pass.cost_before
       << " -> " << pass.cost_after << "\n";
  }
  return os.str();
}

PassManager::PassManager() {
  // Pipeline order: CSE first creates dead duplicates, pushdown shrinks
  // what survives, DCE sweeps both up, join reorder runs on the final
  // command set. The fixpoint loop catches cascades (e.g. commands made
  // identical only after their inputs were rewritten).
  passes_.push_back(std::make_unique<CsePass>());
  passes_.push_back(std::make_unique<PushdownPass>());
  passes_.push_back(std::make_unique<DcePass>());
  passes_.push_back(std::make_unique<JoinReorderPass>());
  // Outside the loop: one last-to-first walk collapses a whole chain of
  // binding joins, and what it leaves gives the loop's passes nothing new.
  final_pass_ = std::make_unique<BindingJoinPass>();
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
  out.access_commands_before = plan.NumAccessCommands();
  out.passes.reserve(passes_.size() + 1);
  for (const auto& pass : passes_) {
    PassStats ps;
    ps.pass = pass->name();
    out.passes.push_back(std::move(ps));
  }
  PassStats final_stats;
  final_stats.pass = final_pass_->name();
  out.passes.push_back(std::move(final_stats));

  Plan current = plan;
  double current_cost = out.cost_before;
  // Runs one pass on `current` behind the validation and cost guard, and
  // charges its counters to `total`. True iff the output was kept.
  auto run_pass = [&](const PlanPass& pass, PassStats& total,
                      bool first_run) {
    PassStats delta;
    const double entry_cost = current_cost;
    // Per-pass cost attribution: cost_before is pinned at the pass's
    // first run, and only savings from *this* pass's accepted runs are
    // subtracted from its cost_after — so (before - after) is the cost
    // drop this pass is responsible for, not the pipeline total.
    if (first_run) {
      total.cost_before = entry_cost;
      total.cost_after = entry_cost;
    }
    bool kept = false;
    if (pass.MayChange(current)) {
      Plan candidate = current;
      if (pass.Run(candidate, schema, delta)) {
        double candidate_cost = cost.Cost(candidate);
        if (ValidatePlan(candidate, schema).ok() &&
            candidate_cost <= current_cost + kCostEpsilon) {
          current = std::move(candidate);
          current_cost = candidate_cost;
          kept = true;
          out.changed = true;
          total.cost_after -= entry_cost - current_cost;
        } else {
          delta = PassStats{};
          delta.rejected = 1;
        }
      }
    }
    Accumulate(total, delta);
    return kept;
  };
  for (int iter = 0; iter < kMaxFixpointIterations; ++iter) {
    ++out.fixpoint_iterations;
    bool iteration_changed = false;
    for (size_t i = 0; i < passes_.size(); ++i) {
      iteration_changed |= run_pass(*passes_[i], out.passes[i], iter == 0);
    }
    if (!iteration_changed) break;
  }
  run_pass(*final_pass_, out.passes.back(), /*first_run=*/true);

  out.cost_after = current_cost;
  out.commands_after = static_cast<int>(current.commands.size());
  out.access_commands_after = current.NumAccessCommands();
  return current;
}

}  // namespace plan_opt
}  // namespace lcp
