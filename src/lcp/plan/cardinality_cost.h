#ifndef LCP_PLAN_CARDINALITY_COST_H_
#define LCP_PLAN_CARDINALITY_COST_H_

#include <unordered_map>

#include "lcp/plan/cost.h"

namespace lcp {

/// Statistics feeding the cardinality-aware cost model: estimated extension
/// sizes per relation and a join overlap factor.
struct CardinalityEstimates {
  /// Estimated number of tuples a free (or fully-satisfiable) access to the
  /// relation returns. Relations absent from the map default to
  /// `default_cardinality`.
  std::unordered_map<RelationId, double> cardinality;
  double default_cardinality = 100.0;
  /// Multiplier applied per join: joining k temp tables is estimated at
  /// (product of sizes is wrong for keyed overlaps, so we use min * f^(k-1)
  /// with f < 1 modelling the "what fraction of one source also appears in
  /// the other" overlap of §1's directory discussion).
  double join_overlap = 0.5;
};

/// The paper's "generic cost function" made concrete (§2, §5): an access
/// command costs method.cost × (estimated number of distinct input
/// bindings), where input cardinalities are propagated through the
/// middleware commands using the estimates above. Monotone in appended
/// access commands (every command adds a positive charge), so cost pruning
/// stays sound. It is not additive: an access's charge depends on the join
/// shape of the plan before it, so two orders of the same accesses can cost
/// differently, and Algorithm 1 turns dominance pruning off under it.
///
/// Under this model the Example 5 intersection plans can beat the
/// single-directory plan: intersecting two directories first shrinks the
/// estimated input to the expensive checking access — which is exactly why
/// the paper insists these plans "are not variants of one another" and must
/// be found by proof exploration.
class CardinalityCostFunction : public CostFunction {
 public:
  CardinalityCostFunction(const Schema* schema, CardinalityEstimates estimates)
      : schema_(schema), estimates_(std::move(estimates)) {}

  double Cost(const Plan& plan) const override;
  bool IsAdditive() const override { return false; }

  /// Estimated row count of each temporary table after running `plan`
  /// (exposed for tests and for explain-style output).
  std::unordered_map<std::string, double> EstimateTables(
      const Plan& plan) const;

 private:
  double RelationCardinality(RelationId relation) const;

  const Schema* schema_;
  CardinalityEstimates estimates_;
};

}  // namespace lcp

#endif  // LCP_PLAN_CARDINALITY_COST_H_
