#include "lcp/planner/negation_search.h"

#include <algorithm>
#include <unordered_set>

#include "lcp/base/strings.h"
#include "lcp/chase/matcher.h"

namespace lcp {

namespace {

/// Order-independent fingerprint of (configuration, accessible set) for
/// visited-state pruning. Hash collisions would merely prune a state, never
/// corrupt a found proof.
size_t StateFingerprint(const ChaseConfig& config) {
  size_t combined = 0;
  FactHash hasher;
  for (const FactRef fact : config.facts()) {
    combined ^= hasher(fact) * 0x9e3779b97f4a7c15ULL + 1;
  }
  return combined;
}

class NegSearcher {
 public:
  NegSearcher(const AccessibleSchema& acc, const ConjunctiveQuery& query,
              const NegSearchOptions& options, TermArena& arena)
      : acc_(acc),
        query_(query),
        options_(options),
        arena_(arena),
        engine_(&acc.schema(), &arena) {}

  Result<NegProofOutcome> Run() {
    CanonicalDatabase canonical = BuildCanonicalDatabase(query_, arena_);
    ChaseConfig config = std::move(canonical.config);

    // Root closure with the original constraints.
    for (const Tgd& tgd : acc_.original_constraints()) {
      compiled_original_.push_back(CompileTgd(tgd, arena_));
    }
    LCP_RETURN_IF_ERROR(
        engine_.Run(compiled_original_, options_.closure_chase, config)
            .status());

    std::unordered_set<ChaseTermId> accessible;
    for (const Value& c : acc_.base().constants()) {
      MarkAccessible(config, accessible, arena_.InternConstant(c));
    }
    for (const Atom& atom : query_.atoms) {
      for (const Term& t : atom.terms) {
        if (t.is_constant()) {
          MarkAccessible(config, accessible,
                         arena_.InternConstant(t.constant()));
        }
      }
    }

    // Compile InferredAccQ (boolean: no pre-bound free variables).
    ConjunctiveQuery inferred = acc_.InferredAccQuery(query_);
    query_pattern_ = CompileAtoms(inferred.atoms, query_vars_, arena_);

    for (const Tgd& tgd : acc_.inferred_constraints()) {
      compiled_inferred_.push_back(CompileTgd(tgd, arena_));
    }

    std::vector<NegProofStep> steps;
    LCP_ASSIGN_OR_RETURN(bool found, Dfs(config, accessible, steps));
    if (!found) {
      return NotFoundError(
          StrCat("no AcSch-neg proof with at most ", options_.max_steps,
                 " accessibility firings for ", query_.name));
    }
    NegProofOutcome outcome;
    outcome.steps = std::move(found_steps_);
    outcome.nodes_explored = nodes_;
    // Backward induction (§4): fold the step list into an executable query.
    ExecutableQueryPtr q = ExecutableQuery::True();
    for (auto it = outcome.steps.rbegin(); it != outcome.steps.rend(); ++it) {
      q = it->negative
              ? ExecutableQuery::Forall(it->method, it->fact.terms, q)
              : ExecutableQuery::Exists(it->method, it->fact.terms, q);
    }
    outcome.query = std::move(q);
    return outcome;
  }

 private:
  void MarkAccessible(ChaseConfig& config,
                      std::unordered_set<ChaseTermId>& accessible,
                      ChaseTermId term) {
    if (accessible.insert(term).second) {
      config.Add(FactRef{acc_.accessible_relation(), {&term, 1}});
    }
  }

  bool Matches(const ChaseConfig& config) {
    std::vector<ChaseTermId> assignment(query_vars_.size(), kUnboundTerm);
    return HasHomomorphism(query_pattern_, config, std::move(assignment));
  }

  /// Depth-first search over proof states; returns true when a proof was
  /// found (recorded in found_steps_).
  Result<bool> Dfs(const ChaseConfig& config,
                   const std::unordered_set<ChaseTermId>& accessible,
                   std::vector<NegProofStep>& steps) {
    if (Matches(config)) {
      found_steps_ = steps;
      return true;
    }
    if (static_cast<int>(steps.size()) >= options_.max_steps) return false;
    if (nodes_ >= options_.max_nodes) return false;
    ++nodes_;
    if (!visited_.insert(StateFingerprint(config)).second) return false;

    // Enumerate moves. Positive exposures first (they are what SPJ plans
    // use); negative firings after.
    struct Move {
      bool negative;
      AccessMethodId method;
      Fact fact;
    };
    std::vector<Move> moves;
    for (const FactRef fact : config.facts()) {
      AccessibleRelationKind kind = acc_.KindOf(fact.relation);
      if (kind == AccessibleRelationKind::kBase) {
        if (config.Contains(
                FactRef{acc_.AccessedOf(fact.relation), fact.terms})) {
          continue;
        }
        for (AccessMethodId m : acc_.base().MethodsOnRelation(fact.relation)) {
          const AccessMethod& method = acc_.base().access_method(m);
          bool fireable = true;
          for (int pos : method.input_positions) {
            if (accessible.count(fact.terms[pos]) == 0) fireable = false;
          }
          if (fireable) moves.push_back(Move{false, m, Fact(fact)});
        }
      } else if (kind == AccessibleRelationKind::kInferred) {
        RelationId base_rel = acc_.BaseOf(fact.relation);
        if (acc_.base().MethodsOnRelation(base_rel).empty()) continue;
        Fact base_fact(FactRef{base_rel, fact.terms});
        if (config.Contains(base_fact)) continue;
        if (acc_.variant() == AccessibleVariant::kNegative) {
          // AcSch¬ (Theorem 3): the negative axiom needs *every* position
          // accessible; any method may realize the checking access.
          bool all_accessible = true;
          for (ChaseTermId t : fact.terms) {
            if (accessible.count(t) == 0) all_accessible = false;
          }
          if (!all_accessible) continue;
          for (AccessMethodId m : acc_.base().MethodsOnRelation(base_rel)) {
            moves.push_back(Move{true, m, base_fact});
          }
        } else {
          // AcSch↔ (Theorem 2): one bidirectional axiom per method, firing
          // as soon as that method's *input* positions are accessible; the
          // ∀-access may then bind the remaining positions.
          for (AccessMethodId m : acc_.base().MethodsOnRelation(base_rel)) {
            const AccessMethod& method = acc_.base().access_method(m);
            bool inputs_accessible = true;
            for (int pos : method.input_positions) {
              if (accessible.count(fact.terms[pos]) == 0) {
                inputs_accessible = false;
              }
            }
            if (inputs_accessible) moves.push_back(Move{true, m, base_fact});
          }
        }
      }
    }

    for (const Move& move : moves) {
      ChaseConfig child = config;
      std::unordered_set<ChaseTermId> child_accessible = accessible;
      child.Add(FactRef{acc_.AccessedOf(move.fact.relation), move.fact.terms});
      child.Add(FactRef{acc_.InferredOf(move.fact.relation), move.fact.terms});
      for (ChaseTermId t : move.fact.terms) {
        MarkAccessible(child, child_accessible, t);
      }
      if (move.negative) {
        // The negative firing puts the base fact into the configuration,
        // which can wake the original constraints.
        child.Add(move.fact);
        LCP_RETURN_IF_ERROR(
            engine_.Run(compiled_original_, options_.closure_chase, child)
                .status());
      }
      LCP_RETURN_IF_ERROR(
          engine_.Run(compiled_inferred_, options_.closure_chase, child)
              .status());
      steps.push_back(NegProofStep{move.negative, move.method, move.fact});
      LCP_ASSIGN_OR_RETURN(bool found, Dfs(child, child_accessible, steps));
      steps.pop_back();
      if (found) return true;
    }
    return false;
  }

  const AccessibleSchema& acc_;
  const ConjunctiveQuery& query_;
  const NegSearchOptions& options_;
  TermArena& arena_;
  ChaseEngine engine_;
  std::vector<CompiledTgd> compiled_inferred_;
  std::vector<CompiledTgd> compiled_original_;
  VariableTable query_vars_;
  std::vector<PatternAtom> query_pattern_;
  std::unordered_set<size_t> visited_;
  std::vector<NegProofStep> found_steps_;
  int nodes_ = 0;
};

}  // namespace

Result<NegProofOutcome> FindNegativeProof(const AccessibleSchema& accessible,
                                          const ConjunctiveQuery& query,
                                          const NegSearchOptions& options,
                                          TermArena& arena) {
  if (!query.is_boolean()) {
    return InvalidArgumentError(
        "the backward-induction algorithm is implemented for boolean "
        "queries (as in the paper's §4 presentation)");
  }
  if (accessible.variant() == AccessibleVariant::kStandard) {
    return InvalidArgumentError(
        "FindNegativeProof requires the kNegative (Theorem 3) or "
        "kBidirectional (Theorem 2) axiom system; use ProofSearch for "
        "AcSch-standard SPJ planning");
  }
  LCP_RETURN_IF_ERROR(accessible.base().ValidateQuery(query));
  NegSearcher searcher(accessible, query, options, arena);
  return searcher.Run();
}

}  // namespace lcp
