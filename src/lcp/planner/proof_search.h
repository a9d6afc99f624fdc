#ifndef LCP_PLANNER_PROOF_SEARCH_H_
#define LCP_PLANNER_PROOF_SEARCH_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/budget.h"
#include "lcp/base/result.h"
#include "lcp/chase/engine.h"
#include "lcp/plan/cost.h"
#include "lcp/plan/opt/pass_manager.h"
#include "lcp/plan/plan.h"

namespace lcp {

namespace search_internal {
struct CompiledConstraints;
}  // namespace search_internal

/// Candidate-selection policy (§5, "Search order"): which candidate fact /
/// method pair to expose first at a node.
enum class CandidateOrder {
  /// Minimal derivation depth first (fact insertion order), then cheapest
  /// method. The default.
  kDerivationDepth,
  /// Input-free methods before input-requiring ones (the heuristic used in
  /// the paper's Figure 1 walkthrough, which explores all directory sources
  /// before the checking access), then derivation depth.
  kFreeAccessFirst,
};

/// Options for Algorithm 1 (§5): cost-guided depth-first exploration of
/// chase proofs, generating SPJ plans directly from the proofs.
struct SearchOptions {
  /// The threshold d: maximum number of access commands per plan.
  int max_access_commands = 6;
  /// Abort a branch whose partial plan already costs at least as much as the
  /// best complete plan (sound for monotone cost functions). Under an
  /// additive cost (CostFunction::IsAdditive) this includes the
  /// remaining-cost bound: a branch that is not yet a plan is aborted when
  /// its cost plus the cheapest single access reaches the best plan's.
  bool prune_by_cost = true;
  /// Abort a node dominated by an existing node: the existing configuration
  /// has "at least as many useful facts" (a homomorphism over base +
  /// InferredAcc + accessible facts, fixing the query's free-variable
  /// constants) at no higher cost (§5, "Optimizations"). In effect only
  /// under an additive cost, where it also turns on sleep sets: a node never
  /// re-exposes an access its parent expanded before it, so each set of
  /// accesses is built in one order (DESIGN.md §8).
  bool prune_by_dominance = true;
  /// Stop at the first successful proof (plan existence check / Theorem 5
  /// mode) instead of exhausting the space.
  bool stop_at_first_plan = false;
  /// Record every successful plan, not just the cheapest.
  bool keep_all_plans = false;
  /// Hard cap on created search nodes, the root included: a search creates
  /// at most this many. Reaching it makes the search *anytime*: Run returns
  /// the best plan found so far with SearchOutcome::exhaustion set to
  /// kResourceExhausted.
  int max_nodes = 100000;
  /// Access methods the search must not use: candidates over these methods
  /// are dropped at enumeration time, so no returned plan ever contains an
  /// excluded method. This is the planner half of
  /// source-health failover (DESIGN.md §10): the
  /// serving layer passes the quarantined-method mask here and proof search
  /// re-routes through live alternatives — the paper's many-sound-plans
  /// property is exactly what makes such detours exist. Unknown ids are
  /// ignored; excluding every method of a needed relation yields kNotFound.
  std::vector<AccessMethodId> excluded_methods;
  /// Chase control for the root closure (original constraints, §5 "Original
  /// Schema Reasoning First") and the per-node closures (inferred
  /// accessible copies, "Fire Inferred Accessible Rules Immediately").
  ChaseOptions root_chase;
  ChaseOptions closure_chase;
  /// Record one human-readable line per node (Figure 1 style dumps), in
  /// depth-first exploration order.
  bool collect_exploration_log = false;
  CandidateOrder candidate_order = CandidateOrder::kDerivationDepth;
  /// Optional shared planning budget (wall-clock deadline + cancel token).
  /// The search checks it before every expansion and threads it into the
  /// root and per-node chase closures (overriding root_chase.budget and
  /// closure_chase.budget), so one budget bounds the whole planning
  /// episode. Exhaustion makes the search *anytime*: Run returns
  /// the best plan found so far with SearchOutcome::exhaustion set instead
  /// of failing. A CancelToken attached to the budget makes the episode
  /// cancellable from another thread through the same poll points (the
  /// QueryService relies on this for Cancel and abort shutdown); exhaustion
  /// then carries the token's code, and callers that no longer want the
  /// answer should discard the best-so-far plan. Not owned; null =
  /// unlimited.
  Budget* budget = nullptr;
  /// Run the plan-IR optimizer pipeline (plan/opt/, DESIGN.md §11) over
  /// every returned plan once the search has finished: the selection fold,
  /// join reorder and binding-join elimination, each re-validated and
  /// guaranteed not to raise cost. `best->cost` is re-evaluated afterwards,
  /// so it can only drop. Off by default — proof-generated plans are often
  /// already minimal and differential harnesses may want the literal plan;
  /// the QueryService's default template turns it on so cached plans are
  /// optimized once and served many times.
  bool optimize_plans = false;
};

struct SearchStats {
  int nodes_created = 0;
  int nodes_expanded = 0;
  int successes = 0;
  int pruned_cost = 0;
  int pruned_dominance = 0;
  int depth_limited = 0;
  int root_chase_firings = 0;
  int closure_firings = 0;
};

struct FoundPlan {
  Plan plan;
  double cost = 0;
};

struct SearchOutcome {
  /// The cheapest complete plan found, if any.
  std::optional<FoundPlan> best;
  /// Every complete plan found (only if keep_all_plans).
  std::vector<FoundPlan> all_plans;
  SearchStats stats;
  std::vector<std::string> exploration_log;
  /// Optimizer report for `best` when SearchOptions::optimize_plans ran
  /// (optimized == true); default-initialized otherwise.
  bool optimized = false;
  plan_opt::OptimizeStats optimize;
  /// Why the search stopped early, if it did (the anytime contract). OK
  /// means the proof space was exhausted and `best` is optimal within the
  /// access budget; kDeadlineExceeded / kResourceExhausted mean the
  /// deadline or max_nodes ran out (a cancel token's code means the episode
  /// was cancelled) and `best` is only the cheapest plan found *so far*
  /// (possibly absent).
  Status exhaustion;
};

/// Algorithm 1 of the paper: searches the space of eager chase proofs that
/// Q entails InferredAccQ over AcSch(S0), maintaining for every proof node
/// the SPJ plan read off the proof (§4) and its cost, and returns the
/// lowest-cost plan within the access budget.
///
/// Constants appearing in the query are treated as schema constants
/// (accessible from the start), per the paper's convention.
class ProofSearch {
 public:
  /// `accessible` and `cost` must outlive the search. The cost function must
  /// be monotone if prune_by_cost is enabled. Compiles the accessible
  /// schema's original and inferred-accessible constraints once, for every
  /// Run; its constraints must not change afterwards (its base schema's
  /// constants may).
  ProofSearch(const AccessibleSchema* accessible, const CostFunction* cost);

  /// Runs the search for `query` (a CQ over the base schema) on the calling
  /// thread. Const and re-entrant: all search state (term arena, chase
  /// engine, node store) lives in a per-call context, and the compiled
  /// constraints are only read, so one ProofSearch may serve concurrent Run
  /// calls from multiple threads (the QueryService worker pool relies on
  /// this), provided the accessible schema and cost function are not mutated
  /// meanwhile. A Budget passed via `options` belongs to one call at a time.
  Result<SearchOutcome> Run(const ConjunctiveQuery& query,
                            const SearchOptions& options) const;

 private:
  const AccessibleSchema* accessible_;
  const CostFunction* cost_;
  std::shared_ptr<const search_internal::CompiledConstraints> compiled_;
};

/// Convenience wrapper: returns a (not necessarily optimal) plan for the
/// query if one exists within the access budget — the effective content of
/// Theorem 5 — or NOT_FOUND.
Result<FoundPlan> FindAnyPlan(const AccessibleSchema& accessible,
                              const ConjunctiveQuery& query,
                              int max_access_commands);

}  // namespace lcp

#endif  // LCP_PLANNER_PROOF_SEARCH_H_
