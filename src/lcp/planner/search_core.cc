#include "lcp/planner/search_core.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "lcp/base/strings.h"
#include "lcp/chase/matcher.h"

namespace lcp {
namespace search_internal {

CompiledConstraints::CompiledConstraints(const AccessibleSchema& accessible)
    : acc(accessible) {
  for (const Tgd& tgd : acc.original_constraints()) {
    original.push_back(CompileTgd(tgd, constants));
  }
  for (const Tgd& tgd : acc.inferred_constraints()) {
    inferred.push_back(CompileTgd(tgd, constants));
  }
}

SearchCore::SearchCore(const CompiledConstraints& compiled,
                       const CostFunction& cost,
                       const ConjunctiveQuery& query,
                       const SearchOptions& options)
    : acc_(compiled.acc),
      compiled_(compiled),
      cost_(cost),
      query_(query),
      options_(options),
      root_chase_(options.root_chase),
      closure_chase_(options.closure_chase),
      additive_(cost.IsAdditive()),
      prune_by_dominance_(options.prune_by_dominance && additive_),
      bound_by_remaining_cost_(options.prune_by_cost && additive_),
      arena_(&compiled.constants) {
  // One budget bounds the whole episode: the search loop and every chase
  // closure it runs poll the same deadline and cancel token.
  root_chase_.budget = options.budget;
  closure_chase_.budget = options.budget;
}

Result<SearchNode> SearchCore::InitRoot(ChaseEngine& engine,
                                        SearchStats& stats) {
  // Canonical database of Q, then the root closure with the original
  // integrity constraints ("Original Schema Reasoning First").
  CanonicalDatabase canonical = BuildCanonicalDatabase(query_, arena_);
  SearchNode root;
  root.id = 0;
  root.config = std::move(canonical.config);
  LCP_ASSIGN_OR_RETURN(
      ChaseStats root_stats,
      engine.Run(compiled_.original, root_chase_, root.config));
  stats.root_chase_firings = root_stats.firings;

  // Schema constants (and by our convention, the query's constants) are
  // accessible from the start.
  for (const Value& c : acc_.base().constants()) {
    MarkAccessible(root, arena_.InternConstant(c));
  }
  for (const Atom& atom : query_.atoms) {
    for (const Term& t : atom.terms) {
      if (t.is_constant()) {
        MarkAccessible(root, arena_.InternConstant(t.constant()));
      }
    }
  }

  // Global candidate list: every (base fact, method-on-its-relation) pair,
  // ordered by derivation depth (fact insertion index) then method cost.
  // Methods on the exclusion mask (quarantined by the source-health
  // registry) never become candidates, so every plan read off a proof is
  // guaranteed to route around them.
  std::vector<char> excluded(
      static_cast<size_t>(acc_.base().num_access_methods()), 0);
  for (AccessMethodId m : options_.excluded_methods) {
    if (m >= 0 && static_cast<size_t>(m) < excluded.size()) excluded[m] = 1;
  }
  for (int i = 0; i < static_cast<int>(root.config.size()); ++i) {
    const FactRef fact = root.config.fact(i);
    if (acc_.KindOf(fact.relation) != AccessibleRelationKind::kBase) continue;
    for (AccessMethodId m : acc_.base().MethodsOnRelation(fact.relation)) {
      if (excluded[m]) continue;
      all_candidates_.push_back(Candidate{i, m});
    }
  }
  std::stable_sort(
      all_candidates_.begin(), all_candidates_.end(),
      [&](const Candidate& a, const Candidate& b) {
        const AccessMethod& ma = acc_.base().access_method(a.method);
        const AccessMethod& mb = acc_.base().access_method(b.method);
        if (options_.candidate_order == CandidateOrder::kFreeAccessFirst) {
          bool fa = ma.is_free_access();
          bool fb = mb.is_free_access();
          if (fa != fb) return fa;
        }
        if (a.fact_index != b.fact_index) return a.fact_index < b.fact_index;
        if (ma.cost != mb.cost) return ma.cost < mb.cost;
        return a.method < b.method;
      });

  // Under an additive cost every method's charge is priced once, by the
  // cost function itself on a one-access plan, so that decorators see the
  // same charges as a whole plan would; h of the remaining-cost bound is the
  // cheapest of them.
  if (additive_) {
    method_charge_.assign(excluded.size(), 0);
    std::vector<char> priced(excluded.size(), 0);
    cheapest_access_ = std::numeric_limits<double>::infinity();
    for (const Candidate& cand : all_candidates_) {
      if (priced[cand.method]) continue;
      priced[cand.method] = 1;
      AccessCommand access;
      access.method = cand.method;
      access.output_table = "t";
      Plan one;
      one.commands.push_back(std::move(access));
      one.output_table = "t";
      method_charge_[cand.method] = cost_.Cost(one);
      cheapest_access_ =
          std::min(cheapest_access_, method_charge_[cand.method]);
    }
  }

  // Compile InferredAccQ for success detection.
  ConjunctiveQuery inferred_q = acc_.InferredAccQuery(query_);
  query_pattern_ = CompileAtoms(inferred_q.atoms, query_vars_, arena_);
  query_assignment_template_.assign(query_vars_.size(), kUnboundTerm);
  for (const std::string& v : query_.free_variables) {
    ChaseTermId term = canonical.var_to_term.at(v);
    query_assignment_template_[query_vars_.IndexOf(v)] = term;
    free_var_terms_.push_back(term);
  }

  int max_arity = 0;
  for (RelationId r = 0; r < acc_.base().num_relations(); ++r) {
    max_arity = std::max(max_arity, acc_.base().relation(r).arity);
  }
  for (int i = 0; i < max_arity; ++i) {
    position_columns_.push_back(StrCat("#p", i));
  }
  return root;
}

void SearchCore::MarkAccessible(SearchNode& node, ChaseTermId term) const {
  std::vector<ChaseTermId>& terms = node.accessible_terms;
  auto it = std::lower_bound(terms.begin(), terms.end(), term);
  if (it != terms.end() && *it == term) return;
  terms.insert(it, term);
  node.config.Add(FactRef{acc_.accessible_relation(), {&term, 1}});
}

int SearchCore::NextCandidate(SearchNode& node) const {
  while (node.cursor < all_candidates_.size()) {
    int i = static_cast<int>(node.cursor);
    ++node.cursor;
    if (!node.removed.empty() && node.removed[i]) continue;
    if (CandidateFireable(node, all_candidates_[i])) return i;
  }
  return -1;
}

bool SearchCore::CandidateFireable(const SearchNode& node,
                                   const Candidate& cand) const {
  // Callers filter node.removed; here we check the semantic conditions.
  const FactRef fact = node.config.fact(cand.fact_index);
  if (IsAccessed(node.config, fact)) return false;
  const AccessMethod& method = acc_.base().access_method(cand.method);
  for (int pos : method.input_positions) {
    if (!std::binary_search(node.accessible_terms.begin(),
                            node.accessible_terms.end(), fact.terms[pos])) {
      return false;
    }
  }
  return true;
}

bool SearchCore::CheckSuccess(const SearchNode& node) const {
  std::vector<ChaseTermId> assignment = query_assignment_template_;
  return HasHomomorphism(query_pattern_, node.config, std::move(assignment));
}

Result<SearchNode> SearchCore::BuildChild(SearchNode& parent, int cand_index,
                                          int child_id, ChaseEngine& engine,
                                          SearchStats& stats) const {
  ++stats.nodes_expanded;
  const Candidate& cand = all_candidates_[cand_index];
  // The parent's configuration is not modified below, so its facts are
  // read in place.
  const FactRef exposed = parent.config.fact(cand.fact_index);
  const AccessMethod& method = acc_.base().access_method(cand.method);

  // Facts induced by firing: all base facts over the same relation agreeing
  // with the exposed fact on the method's input positions, not yet accessed.
  // Seed the scan from the most selective positional-index bucket over the
  // method's input positions instead of the full relation extension.
  std::span<const int> candidates = parent.config.FactsOf(exposed.relation);
  if (candidates.size() > ChaseConfig::kIndexProbeThreshold) {
    for (int pos : method.input_positions) {
      std::span<const int> bucket =
          parent.config.FactsWith(exposed.relation, pos, exposed.terms[pos]);
      if (bucket.size() < candidates.size()) candidates = bucket;
    }
  }
  std::vector<int> induced;
  for (int idx : candidates) {
    const FactRef d = parent.config.fact(idx);
    bool agrees = true;
    for (int pos : method.input_positions) {
      if (d.terms[pos] != exposed.terms[pos]) {
        agrees = false;
        break;
      }
    }
    if (agrees && !IsAccessed(parent.config, d)) induced.push_back(idx);
  }
  LCP_CHECK(!induced.empty());

  // Algorithm 1, line 10: the parent will not re-fire this same access for
  // any of the induced facts.
  for (int i = 0; i < static_cast<int>(all_candidates_.size()); ++i) {
    if (all_candidates_[i].method != cand.method) continue;
    const FactRef d = parent.config.fact(all_candidates_[i].fact_index);
    if (d.relation != exposed.relation) continue;
    bool agrees = true;
    for (int pos : method.input_positions) {
      if (d.terms[pos] != exposed.terms[pos]) {
        agrees = false;
        break;
      }
    }
    if (!agrees) continue;
    if (parent.removed.empty()) {
      parent.removed.assign(all_candidates_.size(), false);
    }
    parent.removed[i] = true;
  }

  SearchNode child;
  child.id = child_id;
  child.parent = parent.id;
  // Sleep sets: the child inherits every access the parent has expanded,
  // this one included.
  if (prune_by_dominance_) child.removed = parent.removed;
  child.config = parent.config;
  child.accessible_terms = parent.accessible_terms;
  child.accesses = parent.accesses + 1;

  // --- configuration update ----------------------------------------------
  for (int idx : induced) {
    const FactRef d = parent.config.fact(idx);
    child.config.Add(FactRef{acc_.AccessedOf(d.relation), d.terms});
    child.config.Add(FactRef{acc_.InferredOf(d.relation), d.terms});
    for (ChaseTermId t : d.terms) MarkAccessible(child, t);
  }
  // "Fire Inferred Accessible Rules Immediately": close under the
  // InferredAcc copies of the integrity constraints.
  LCP_ASSIGN_OR_RETURN(
      ChaseStats closure_stats,
      engine.Run(compiled_.inferred, closure_chase_, child.config));
  stats.closure_firings += closure_stats.firings;

  // --- proof and cost --------------------------------------------------------
  child.proof = std::make_shared<const ProofStep>(
      ProofStep{cand_index, child.id, std::move(induced), parent.proof});
  // An additive cost sums its charges in command order, which is the order
  // of the proof's exposures, so this is exactly the cost of the plan.
  child.cost = additive_ ? parent.cost + method_charge_[cand.method]
                         : cost_.Cost(ReadPlan(child));
  return child;
}

// GCC 12's middle end, at some inlining depths, reports false-positive
// -Wrestrict / -Wmaybe-uninitialized warnings for std::variant<Command>
// relocations inside the commands.push_back calls in ReadPlan and
// MakeFoundPlan (all AccessCommand members have default initializers;
// nothing here reads uninitialized state). Suppress narrowly around these
// functions to keep the build warning-clean.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

Plan SearchCore::ReadPlan(const SearchNode& node) const {
  std::vector<const ProofStep*> steps;
  for (const ProofStep* step = node.proof.get(); step != nullptr;
       step = step->prev.get()) {
    steps.push_back(step);
  }
  // Base facts keep their root indexes in every descendant, so the node's
  // own configuration holds every fact the proof names.
  Plan plan;
  std::string table;  // The running table; empty before any access.
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    const ProofStep& step = **it;
    const Candidate& cand = all_candidates_[step.candidate];
    const FactRef exposed = node.config.fact(cand.fact_index);
    const AccessMethod& method = acc_.base().access_method(cand.method);
    const Relation& rel = acc_.base().relation(exposed.relation);

    std::string raw = StrCat("t", step.node_id, "_raw");
    AccessCommand access;
    access.method = cand.method;
    access.output_table = raw;
    for (int i = 0; i < rel.arity; ++i) {
      access.output_columns.emplace_back(PositionColumn(i), i);
    }
    std::vector<std::string> input_attrs;
    for (int pos : method.input_positions) {
      ChaseTermId t = exposed.terms[pos];
      if (TermArena::IsConstant(t)) {
        access.constant_inputs.emplace_back(pos, arena_.ConstantOf(t));
      } else {
        std::string attr = arena_.DisplayName(t);
        access.input_binding.emplace_back(attr, pos);
        if (std::find(input_attrs.begin(), input_attrs.end(), attr) ==
            input_attrs.end()) {
          input_attrs.push_back(attr);
        }
      }
    }
    if (!input_attrs.empty()) {
      LCP_CHECK(!table.empty())
          << "accessible null inputs require a previous table";
      access.input = RaExpr::Project(RaExpr::TempScan(table), input_attrs);
    }
    plan.commands.push_back(std::move(access));

    // One derived table per induced fact, then one join command.
    std::vector<std::string> fact_tables;
    for (size_t fi = 0; fi < step.induced.size(); ++fi) {
      const FactRef d = node.config.fact(step.induced[fi]);
      RaExprPtr expr = RaExpr::TempScan(raw);
      std::vector<RaExpr::Condition> conds;
      std::vector<std::pair<std::string, std::string>> renames;
      std::vector<std::string> proj;
      for (int i = 0; i < rel.arity; ++i) {
        ChaseTermId t = d.terms[i];
        const std::string& col = PositionColumn(i);
        if (TermArena::IsConstant(t)) {
          conds.push_back(
              RaExpr::Condition::AttrEqConst(col, arena_.ConstantOf(t)));
          continue;
        }
        int first = 0;
        while (d.terms[first] != t) ++first;
        if (first < i) {
          conds.push_back(
              RaExpr::Condition::AttrEqAttr(col, PositionColumn(first)));
        } else {
          std::string attr = arena_.DisplayName(t);
          renames.emplace_back(col, attr);
          proj.push_back(std::move(attr));
        }
      }
      if (!conds.empty()) {
        expr = RaExpr::Select(std::move(expr), std::move(conds));
      }
      if (!renames.empty()) {
        expr = RaExpr::Rename(std::move(expr), std::move(renames));
      }
      expr = RaExpr::Project(std::move(expr), std::move(proj));
      std::string fact_table = StrCat("t", step.node_id, "_f", fi);
      plan.commands.push_back(QueryCommand{fact_table, std::move(expr)});
      fact_tables.push_back(std::move(fact_table));
    }
    RaExprPtr joined = table.empty() ? nullptr : RaExpr::TempScan(table);
    for (const std::string& fact_table : fact_tables) {
      RaExprPtr scan = RaExpr::TempScan(fact_table);
      joined = joined ? RaExpr::Join(std::move(joined), std::move(scan))
                      : std::move(scan);
    }
    table = StrCat("t", step.node_id);
    plan.commands.push_back(QueryCommand{table, std::move(joined)});
  }
  plan.output_table = std::move(table);
  return plan;
}

FoundPlan SearchCore::MakeFoundPlan(const SearchNode& node) const {
  Plan plan = ReadPlan(node);
  if (!query_.free_variables.empty()) {
    std::vector<std::string> out_attrs;
    for (ChaseTermId term : free_var_terms_) {
      out_attrs.push_back(arena_.DisplayName(term));
    }
    std::string out_table = StrCat("t", node.id, "_out");
    plan.commands.push_back(QueryCommand{
        out_table,
        RaExpr::Project(RaExpr::TempScan(plan.output_table), out_attrs)});
    plan.output_table = out_table;
    plan.output_attrs = out_attrs;
  }
  return FoundPlan{std::move(plan), node.cost};
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

DominanceSignature SearchCore::SignatureOf(const ChaseConfig& config) const {
  DominanceSignature signature;
  for (const FactRef fact : config.facts()) {
    AccessibleRelationKind kind = acc_.KindOf(fact.relation);
    if (kind == AccessibleRelationKind::kBase ||
        kind == AccessibleRelationKind::kAccessed) {
      continue;
    }
    const uint64_t relation = static_cast<uint32_t>(fact.relation);
    signature.Add(relation);
    for (size_t i = 0; i < fact.terms.size(); ++i) {
      if (!IsFixedTerm(fact.terms[i])) continue;
      signature.Add((relation << 40) ^ (uint64_t{i + 1} << 32) ^
                    static_cast<uint32_t>(fact.terms[i]));
    }
  }
  return signature;
}

const DominanceProbe& SearchCore::MakeDominanceProbe(
    const ChaseConfig& config, ProbeScratch& scratch) const {
  // Build the pattern: the base, InferredAcc, and accessible facts, with
  // nulls as variables except the query's free-variable constants, which
  // any dominating configuration must also realize identically.
  std::vector<int>& var_of = scratch.var_of;
  DominanceProbe& probe = scratch.probe;
  probe.num_vars = 0;
  size_t atoms = 0;
  for (const FactRef fact : config.facts()) {
    if (acc_.KindOf(fact.relation) == AccessibleRelationKind::kAccessed) {
      continue;
    }
    if (atoms == probe.pattern.size()) probe.pattern.emplace_back();
    PatternAtom& atom = probe.pattern[atoms++];
    atom.relation = fact.relation;
    atom.slots.resize(fact.terms.size());
    for (size_t i = 0; i < fact.terms.size(); ++i) {
      const ChaseTermId t = fact.terms[i];
      PatternAtom::Slot& slot = atom.slots[i];
      if (IsFixedTerm(t)) {
        slot = PatternAtom::Slot{false, -1, t};
        continue;
      }
      if (static_cast<size_t>(t) >= var_of.size()) var_of.resize(t + 1, -1);
      if (var_of[t] < 0) var_of[t] = static_cast<int>(probe.num_vars++);
      slot = PatternAtom::Slot{true, var_of[t], kUnboundTerm};
    }
  }
  probe.pattern.resize(atoms);
  // Hand the table back clean.
  for (const FactRef fact : config.facts()) {
    for (ChaseTermId t : fact.terms) {
      if (TermArena::IsNull(t) && static_cast<size_t>(t) < var_of.size()) {
        var_of[t] = -1;
      }
    }
  }
  return probe;
}

std::string SearchCore::LogLine(const SearchNode& node,
                                const std::string& status) const {
  std::string label = "root";
  if (node.proof != nullptr) {
    // Base facts keep their root indexes in every descendant.
    const Candidate& cand = all_candidates_[node.proof->candidate];
    label = StrCat(
        "expose ",
        FactToString(node.config.fact(cand.fact_index), acc_.schema(),
                     arena_),
        " via ", acc_.base().access_method(cand.method).name);
  }
  return StrCat("n", node.id,
                (node.parent >= 0 ? StrCat(" <- n", node.parent)
                                  : std::string("")),
                " [", label, "] facts=", node.config.size(),
                " accesses=", node.accesses, " ", status);
}

}  // namespace search_internal
}  // namespace lcp
