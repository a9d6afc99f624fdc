#include "lcp/planner/proof_search.h"

#include <utility>

#include "lcp/base/strings.h"
#include "lcp/planner/search_core.h"

namespace lcp {

ProofSearch::ProofSearch(const AccessibleSchema* accessible,
                         const CostFunction* cost)
    : accessible_(accessible), cost_(cost) {
  LCP_CHECK(accessible != nullptr && cost != nullptr);
}

Result<SearchOutcome> ProofSearch::Run(const ConjunctiveQuery& query,
                                       const SearchOptions& options) const {
  LCP_RETURN_IF_ERROR(accessible_->base().ValidateQuery(query));
  if (accessible_->variant() != AccessibleVariant::kStandard) {
    return InvalidArgumentError(
        "ProofSearch (Algorithm 1) uses the standard AcSch axioms; build the "
        "accessible schema with AccessibleVariant::kStandard");
  }
  if (options.parallelism > 1 && options.collect_exploration_log) {
    return InvalidArgumentError(
        "collect_exploration_log requires parallelism == 1: the "
        "exploration log is an ordered depth-first trace, and a parallel "
        "exploration has no canonical order");
  }
  Result<SearchOutcome> result =
      search_internal::RunSearch(*accessible_, *cost_, query, options);
  if (!result.ok() || !options.optimize_plans) return result;

  // Post-search optimization (DESIGN.md §11). Optimizer failures are never
  // search failures: the literal proof-derived plan is already correct, so
  // any rejection just serves it as-is.
  SearchOutcome outcome = std::move(result).value();
  static const plan_opt::PassManager manager;
  if (outcome.best.has_value()) {
    Result<Plan> optimized = manager.Optimize(
        outcome.best->plan, accessible_->base(), *cost_, &outcome.optimize);
    if (optimized.ok()) {
      outcome.best->plan = std::move(optimized).value();
      outcome.best->cost = cost_->Cost(outcome.best->plan);
      outcome.optimized = true;
    }
  }
  for (FoundPlan& found : outcome.all_plans) {
    Result<Plan> optimized =
        manager.Optimize(found.plan, accessible_->base(), *cost_, nullptr);
    if (optimized.ok()) {
      found.plan = std::move(optimized).value();
      found.cost = cost_->Cost(found.plan);
    }
  }
  return outcome;
}

Result<FoundPlan> FindAnyPlan(const AccessibleSchema& accessible,
                              const ConjunctiveQuery& query,
                              int max_access_commands, int parallelism) {
  SimpleCostFunction cost(&accessible.base());
  ProofSearch search(&accessible, &cost);
  SearchOptions options;
  options.max_access_commands = max_access_commands;
  options.stop_at_first_plan = true;
  options.prune_by_cost = false;
  options.parallelism = parallelism;
  LCP_ASSIGN_OR_RETURN(SearchOutcome outcome, search.Run(query, options));
  if (!outcome.best.has_value()) {
    return NotFoundError(
        StrCat("no plan with at most ", max_access_commands,
               " access commands answers ", query.name));
  }
  return *outcome.best;
}

}  // namespace lcp
