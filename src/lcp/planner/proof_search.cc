#include "lcp/planner/proof_search.h"

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "lcp/base/strings.h"
#include "lcp/planner/dominance_store.h"
#include "lcp/planner/search_core.h"

namespace lcp {

namespace {

using search_internal::DominanceProbe;
using search_internal::DominanceSignature;
using search_internal::DominanceStore;
using search_internal::SearchCore;
using search_internal::SearchNode;

/// The driver of Algorithm 1 (DESIGN.md §8): a depth-first search over an
/// explicit stack, on the calling thread. Node expansion lives in
/// SearchCore; the driver orders the nodes, makes the pruning decisions and
/// keeps the incumbent and the dominance store.
///
/// The node on top of the stack is expanded one candidate per step. A child
/// that survives pruning and is not a success is pushed and expanded next;
/// a node is popped once its candidates are exhausted or its access budget
/// is used up. Node ids, pruning decisions, stats, plans and the
/// exploration log are deterministic.
class SearchDriver {
 public:
  SearchDriver(const search_internal::CompiledConstraints& compiled,
               const CostFunction& cost, const ConjunctiveQuery& query,
               const SearchOptions& options)
      : core_(compiled, cost, query, options), options_(options) {}

  Result<SearchOutcome> Run() {
    Budget* budget = options_.budget;
    SearchStats& stats = outcome_.stats;
    ChaseEngine engine(&core_.schema(), &core_.arena());
    Result<SearchNode> root = core_.InitRoot(engine, stats);
    if (!root.ok()) {
      // Anytime contract: a budget that dies during the root closure yields
      // an empty best-effort outcome, not an error.
      if (budget != nullptr && budget->exhausted()) {
        outcome_.exhaustion = budget->exhaustion();
        return std::move(outcome_);
      }
      return root.status();
    }
    auto root_node = std::make_shared<SearchNode>(std::move(*root));
    stats.nodes_created = 1;
    Log(*root_node, "initial");
    if (core_.prune_by_dominance()) {
      Publish(root_node, core_.SignatureOf(root_node->config));
    }
    std::vector<std::shared_ptr<SearchNode>> stack = {std::move(root_node)};
    SearchCore::ProbeScratch probe_scratch;
    while (!stack.empty()) {
      if (budget != nullptr) {
        Status budget_status = budget->Check();
        if (!budget_status.ok()) {
          outcome_.exhaustion = std::move(budget_status);
          break;
        }
      }
      SearchNode& cur = *stack.back();
      const int cand_index = core_.NextCandidate(cur);
      if (cand_index < 0) {
        stack.pop_back();
        continue;
      }
      if (cur.accesses >= options_.max_access_commands) {
        ++stats.depth_limited;
        stack.pop_back();
        continue;
      }
      if (stats.nodes_created >= options_.max_nodes) {
        outcome_.exhaustion = ResourceExhaustedError(
            StrCat("search node cap of ", options_.max_nodes, " reached"));
        break;
      }
      Result<SearchNode> built = core_.BuildChild(
          cur, cand_index, stats.nodes_created, engine, stats);
      if (!built.ok()) {
        // A chase closure interrupted by the budget stops the search
        // gracefully with whatever was found; genuine chase errors
        // propagate.
        if (budget == nullptr || !budget->exhausted()) return built.status();
        outcome_.exhaustion = budget->exhaustion();
        break;
      }
      SearchNode& child = *built;
      if (options_.prune_by_cost && child.cost >= best_cost_) {
        ++stats.pruned_cost;
        Log(child, "pruned(cost)");
        continue;
      }
      DominanceSignature signature;
      if (core_.prune_by_dominance()) {
        signature = core_.SignatureOf(child.config);
        if (store_.IsDominated(
                signature, child.cost, child.accesses,
                [&]() -> const DominanceProbe& {
                  return core_.MakeDominanceProbe(child.config, probe_scratch);
                })) {
          ++stats.pruned_dominance;
          Log(child, "pruned(dominated)");
          continue;
        }
      }
      child.success = core_.CheckSuccess(child);
      // A success is never bound-pruned: it is a plan, not a promise of one.
      if (!child.success && core_.CannotBeat(child, best_cost_)) {
        ++stats.pruned_cost;
        Log(child, "pruned(cost)");
        continue;
      }
      auto node = std::make_shared<SearchNode>(std::move(child));
      ++stats.nodes_created;
      // Successful nodes are dominators too.
      if (core_.prune_by_dominance()) Publish(node, signature);
      if (node->success) {
        ++stats.successes;
        RecordPlan(core_.MakeFoundPlan(*node));
        Log(*node, "SUCCESS cost=", node->cost);
        if (options_.stop_at_first_plan) break;
        continue;  // Keep expanding the current node's other candidates.
      }
      Log(*node, "cost=", node->cost);
      stack.push_back(std::move(node));
    }
    return std::move(outcome_);
  }

 private:
  /// Makes `node` a dominator candidate.
  void Publish(const std::shared_ptr<SearchNode>& node,
               const DominanceSignature& signature) {
    store_.Insert(signature, node->cost, node->accesses,
                  std::shared_ptr<const ChaseConfig>(node, &node->config));
  }

  /// Appends `node`'s exploration-log line, its status the concatenation of
  /// `status`. Nothing is formatted when the log is off.
  template <typename... Status>
  void Log(const SearchNode& node, const Status&... status) {
    if (!options_.collect_exploration_log) return;
    outcome_.exploration_log.push_back(core_.LogLine(node, StrCat(status...)));
  }

  void RecordPlan(FoundPlan found) {
    if (options_.keep_all_plans) outcome_.all_plans.push_back(found);
    if (!outcome_.best.has_value() || found.cost < outcome_.best->cost) {
      best_cost_ = found.cost;
      outcome_.best = std::move(found);
    }
  }

  SearchCore core_;
  const SearchOptions& options_;
  DominanceStore store_;
  /// The incumbent bound: the cost of outcome_.best, infinite until a plan
  /// is found.
  double best_cost_ = std::numeric_limits<double>::infinity();
  SearchOutcome outcome_;
};

}  // namespace

ProofSearch::ProofSearch(const AccessibleSchema* accessible,
                         const CostFunction* cost)
    : accessible_(accessible), cost_(cost) {
  LCP_CHECK(accessible != nullptr && cost != nullptr);
  compiled_ =
      std::make_shared<const search_internal::CompiledConstraints>(*accessible);
}

Result<SearchOutcome> ProofSearch::Run(const ConjunctiveQuery& query,
                                       const SearchOptions& options) const {
  LCP_RETURN_IF_ERROR(accessible_->base().ValidateQuery(query));
  if (accessible_->variant() != AccessibleVariant::kStandard) {
    return InvalidArgumentError(
        "ProofSearch (Algorithm 1) uses the standard AcSch axioms; build the "
        "accessible schema with AccessibleVariant::kStandard");
  }
  Result<SearchOutcome> result =
      SearchDriver(*compiled_, *cost_, query, options).Run();
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
                              int max_access_commands) {
  SimpleCostFunction cost(&accessible.base());
  ProofSearch search(&accessible, &cost);
  SearchOptions options;
  options.max_access_commands = max_access_commands;
  options.stop_at_first_plan = true;
  options.prune_by_cost = false;
  LCP_ASSIGN_OR_RETURN(SearchOutcome outcome, search.Run(query, options));
  if (!outcome.best.has_value()) {
    return NotFoundError(
        StrCat("no plan with at most ", max_access_commands,
               " access commands answers ", query.name));
  }
  return *outcome.best;
}

}  // namespace lcp
