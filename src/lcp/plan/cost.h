#ifndef LCP_PLAN_COST_H_
#define LCP_PLAN_COST_H_

#include <unordered_map>

#include "lcp/plan/plan.h"
#include "lcp/schema/schema.h"

namespace lcp {

/// A "black box" plan cost function (§2, "Cost"). Implementations must be
/// monotone: appending access commands never decreases the cost — the
/// cost-bound pruning in Algorithm 1 relies on this.
class CostFunction {
 public:
  virtual ~CostFunction() = default;
  virtual double Cost(const Plan& plan) const = 0;

  /// The additivity contract: true when Cost(plan) is a sum, over the
  /// plan's access commands, of a charge that depends only on the command's
  /// method (the paper's simple cost). Then two plans that make the same
  /// accesses in a different order cost the same, and a plan costs at least
  /// its prefix plus the cheapest single access. Algorithm 1 relies on this
  /// for dominance pruning, for exposing each set of accesses once (sleep
  /// sets) and for the remaining-cost bound (DESIGN.md §8); a cost function
  /// that returns false gets none of them. Decorators that forward to an
  /// additive cost keep the default.
  virtual bool IsAdditive() const { return true; }
};

/// The paper's simple cost function: each access method mt has a positive
/// cost c_mt and a plan costs the sum over its access commands of the
/// invoked method's cost (repeated methods charged per command).
class SimpleCostFunction : public CostFunction {
 public:
  explicit SimpleCostFunction(const Schema* schema) : schema_(schema) {}

  double Cost(const Plan& plan) const override;

  /// Cost of a single access command using `method`.
  double MethodCost(AccessMethodId method) const {
    return schema_->access_method(method).cost;
  }

 private:
  const Schema* schema_;
};

/// A refinement used in the benchmarks: like SimpleCostFunction but each
/// method's charge is weighted by an estimated number of per-tuple source
/// calls (caller-provided estimated input cardinality per relation).
/// Still monotone and additive.
class WeightedAccessCostFunction : public CostFunction {
 public:
  WeightedAccessCostFunction(const Schema* schema,
                             std::unordered_map<RelationId, double>
                                 estimated_calls_per_access)
      : schema_(schema),
        estimated_calls_(std::move(estimated_calls_per_access)) {}

  double Cost(const Plan& plan) const override;

 private:
  const Schema* schema_;
  std::unordered_map<RelationId, double> estimated_calls_;
};

}  // namespace lcp

#endif  // LCP_PLAN_COST_H_
