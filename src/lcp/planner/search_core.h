#ifndef LCP_PLANNER_SEARCH_CORE_H_
#define LCP_PLANNER_SEARCH_CORE_H_

// Internal header: the node-expansion core of Algorithm 1, which the driver
// in proof_search.cc runs. Not part of the public API — include
// lcp/planner/proof_search.h instead.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/result.h"
#include "lcp/chase/engine.h"
#include "lcp/chase/matcher.h"
#include "lcp/plan/cost.h"
#include "lcp/planner/dominance_store.h"
#include "lcp/planner/proof_search.h"

namespace lcp {
namespace search_internal {

/// What every search of one ProofSearch shares, read-only (DESIGN.md §8):
/// the accessible schema, and its original constraints and their
/// inferred-accessible copies compiled once against `constants`, a base
/// arena holding their constants that each search's arena layers over.
/// Everything else a search needs stays per search: the schema's constants
/// (the schema may be edited in place), the method charges (priced through
/// the cost function), the candidate list and the exclusion mask (they
/// depend on the query and the options).
struct CompiledConstraints {
  /// `accessible` must outlive the result, and its constraints must not
  /// change.
  explicit CompiledConstraints(const AccessibleSchema& accessible);

  const AccessibleSchema& acc;
  TermArena constants;
  /// For the root closure ("Original Schema Reasoning First").
  std::vector<CompiledTgd> original;
  /// For the per-node closures ("Fire Inferred Accessible Rules
  /// Immediately").
  std::vector<CompiledTgd> inferred;
};

/// A (fact, method) pair that could be exposed by firing an accessibility
/// axiom (§5, "candidate for exposure"). Facts are identified by their index
/// in the root configuration (base facts never grow after the root closure,
/// because original-schema constraints fire only there).
struct Candidate {
  int fact_index;
  AccessMethodId method;
};

/// One exposure of a partial proof (§4): the candidate fired, the id of the
/// node it built, which names the step's tables, and the base facts it
/// induced, by their root indexes. Steps are immutable once built and
/// shared: a node's proof is its own step linked back to the root (a
/// persistent list), so a child adds one step and shares the rest with its
/// parent.
struct ProofStep {
  int candidate = -1;
  int node_id = 0;
  std::vector<int> induced;
  std::shared_ptr<const ProofStep> prev;  ///< Null for the first exposure.
};

/// One node of the partial proof tree: a chase configuration over the
/// accessible schema plus the proof that built it. The plan is read off the
/// proof only when needed (SearchCore::ReadPlan). The configuration is
/// immutable once BuildChild returns, so the dominance store may keep it;
/// only the cursor and removed expansion state change afterwards.
struct SearchNode {
  /// The number of nodes created before this node's build started. Ids
  /// strictly increase along every root-to-leaf path, so the table names
  /// derived from them are unique within every plan.
  int id = 0;
  int parent = -1;
  ChaseConfig config;
  /// Terms with an accessible(t) fact, ascending.
  std::vector<ChaseTermId> accessible_terms;
  /// Candidate indexes this node will not expose, as a bitmap over all
  /// candidates (empty until the first removal): the accesses it has
  /// expanded (Algorithm 1, line 10 marks every candidate with the same
  /// method and input values). With dominance pruning in effect a child
  /// inherits its parent's bitmap (sleep sets, DESIGN.md §8).
  std::vector<bool> removed;
  size_t cursor = 0;  ///< Next candidate index to consider.
  /// The exposures from the root, last one first; null at the root.
  std::shared_ptr<const ProofStep> proof;
  double cost = 0;
  int accesses = 0;
  bool success = false;
};

/// The scheduling-independent parts of Algorithm 1: root construction,
/// candidate iteration, node expansion (configuration update,
/// inferred-accessible closure, proof step, cost), success detection, the
/// §4 proof-to-plan translation, the dominance signature and probe, and
/// which prunings the cost function admits (IsAdditive). Pruning *decisions*
/// and node bookkeeping stay in the driver.
class SearchCore {
 public:
  /// The search's arena layers over `compiled`'s constants.
  SearchCore(const CompiledConstraints& compiled, const CostFunction& cost,
             const ConjunctiveQuery& query, const SearchOptions& options);

  /// Builds the root node: canonical database of the query, root closure
  /// under the compiled original constraints, schema/query constants marked
  /// accessible, the global candidate list, each candidate method's charge
  /// (under an additive cost), and the compiled InferredAccQ pattern. Call
  /// exactly once, before any other method. Does not count the node — the
  /// driver owns node accounting.
  Result<SearchNode> InitRoot(ChaseEngine& engine, SearchStats& stats);

  /// Advances node.cursor past removed and non-fireable candidates; returns
  /// the next fireable candidate index, or -1 when the node is exhausted.
  int NextCandidate(SearchNode& node) const;

  bool CandidateFireable(const SearchNode& node, const Candidate& cand) const;

  bool CheckSuccess(const SearchNode& node) const;

  /// The §4 plan read off `node`'s proof: per exposure, one access command,
  /// one derived table per induced fact and one join into the running
  /// table, which is the plan's output table.
  Plan ReadPlan(const SearchNode& node) const;

  /// The plan read off a successful node, with the free-variable projection
  /// appended, plus its cost.
  FoundPlan MakeFoundPlan(const SearchNode& node) const;

  /// Expands `parent` on `cand_index`: removes the sibling candidates this
  /// access also covers (Algorithm 1, line 10), then builds the child —
  /// inherited sleep set (when dominance pruning is in effect),
  /// configuration update, "fire inferred accessible rules immediately"
  /// closure, proof step, cost. Under an additive cost the child costs its
  /// parent's cost plus its method's charge; otherwise the cost function
  /// prices the plan read off the child's proof. Returns the child without
  /// making any pruning decision. Mutates only `parent` and `stats` (besides
  /// the nulls the closure mints). Errors propagate (typically a
  /// budget-exhausted chase closure; the driver translates that into the
  /// anytime contract).
  Result<SearchNode> BuildChild(SearchNode& parent, int cand_index,
                                int child_id, ChaseEngine& engine,
                                SearchStats& stats) const;

  /// The dominance signature of `config`: the relations of its InferredAcc
  /// and accessible facts, and the (relation, position, term) triples of
  /// those facts whose term is fixed (a constant or a free-variable null).
  /// Base facts are skipped: every node holds the root's base facts.
  DominanceSignature SignatureOf(const ChaseConfig& config) const;

  /// The driver's reusable buffers for MakeDominanceProbe.
  struct ProbeScratch {
    /// Flat null -> pattern variable table; all -1 between calls.
    std::vector<int> var_of;
    DominanceProbe probe;
  };

  /// The dominance probe of `config` (§5, "Optimizations"): its base,
  /// InferredAcc, and accessible facts as a pattern with nulls as variables,
  /// except the query's free-variable constants, which stay fixed. A
  /// configuration that admits a homomorphism of this pattern (at no higher
  /// cost and no higher access count) dominates the node. Built into (and
  /// returned from) `scratch`, reusing its allocations.
  const DominanceProbe& MakeDominanceProbe(const ChaseConfig& config,
                                           ProbeScratch& scratch) const;

  /// Figure-1-style exploration-log line for `node`.
  std::string LogLine(const SearchNode& node, const std::string& status) const;

  /// Whether dominance pruning, and with it sleep sets, is in effect:
  /// requested, and sound because the cost function is additive.
  bool prune_by_dominance() const { return prune_by_dominance_; }

  /// The remaining-cost bound (f = g + h): true when `node`, which is not a
  /// success and so needs at least one more access, costs at least
  /// `incumbent` once the cheapest single access is added. In effect only
  /// when prune_by_cost is set and the cost function is additive.
  bool CannotBeat(const SearchNode& node, double incumbent) const {
    return bound_by_remaining_cost_ &&
           node.cost + cheapest_access_ >= incumbent;
  }

  const SearchOptions& options() const { return options_; }
  const Schema& schema() const { return acc_.schema(); }
  TermArena& arena() { return arena_; }

 private:
  void MarkAccessible(SearchNode& node, ChaseTermId term) const;
  bool IsFixedTerm(ChaseTermId term) const {
    return TermArena::IsConstant(term) ||
           std::find(free_var_terms_.begin(), free_var_terms_.end(), term) !=
               free_var_terms_.end();
  }
  bool IsAccessed(const ChaseConfig& config, FactRef base_fact) const {
    return config.Contains(
        FactRef{acc_.AccessedOf(base_fact.relation), base_fact.terms});
  }
  /// "#p{i}": the raw access table's column for position i.
  const std::string& PositionColumn(int i) const {
    return position_columns_[i];
  }

  const AccessibleSchema& acc_;
  const CompiledConstraints& compiled_;
  const CostFunction& cost_;
  const ConjunctiveQuery& query_;
  const SearchOptions& options_;
  /// Chase options with the shared budget threaded in.
  ChaseOptions root_chase_;
  ChaseOptions closure_chase_;
  const bool additive_;
  const bool prune_by_dominance_;
  const bool bound_by_remaining_cost_;
  /// Under an additive cost, each candidate method's charge: the cost of
  /// its one-access plan, indexed by method id (InitRoot).
  std::vector<double> method_charge_;
  /// h of the remaining-cost bound: the cheapest charge over the candidates'
  /// methods (InitRoot).
  double cheapest_access_ = 0;

  /// Layers over compiled_.constants.
  TermArena arena_;
  std::vector<std::string> position_columns_;
  std::vector<Candidate> all_candidates_;
  /// InferredAccQ compiled for success checks; free variables pre-bound to
  /// their canonical nulls.
  VariableTable query_vars_;
  std::vector<PatternAtom> query_pattern_;
  std::vector<ChaseTermId> query_assignment_template_;
  std::vector<ChaseTermId> free_var_terms_;
};

}  // namespace search_internal
}  // namespace lcp

#endif  // LCP_PLANNER_SEARCH_CORE_H_
