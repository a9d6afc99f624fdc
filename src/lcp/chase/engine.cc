#include "lcp/chase/engine.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "lcp/base/strings.h"

namespace lcp {

CompiledTgd CompileTgd(const Tgd& tgd, TermArena& arena) {
  CompiledTgd compiled;
  compiled.source = &tgd;
  compiled.body = CompileAtoms(tgd.body, compiled.vars, arena);
  const int body_vars = compiled.vars.size();
  compiled.head = CompileAtoms(tgd.head, compiled.vars, arena);
  const int num_vars = compiled.vars.size();
  compiled.in_body.assign(num_vars, false);
  for (int i = 0; i < body_vars; ++i) compiled.in_body[i] = true;
  for (int i = 0; i < num_vars; ++i) {
    if (compiled.in_body[i]) {
      // Frontier = body variables that also occur in the head.
      bool in_head = false;
      for (const PatternAtom& atom : compiled.head) {
        for (const auto& slot : atom.slots) {
          if (slot.is_variable && slot.var_index == i) in_head = true;
        }
      }
      if (in_head) compiled.frontier_vars.push_back(i);
    } else {
      compiled.existential_vars.push_back(i);
    }
  }
  return compiled;
}

ChaseEngine::ChaseEngine(const Schema* schema, TermArena* arena)
    : schema_(schema), arena_(arena) {
  LCP_CHECK(schema != nullptr && arena != nullptr);
}

namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Canonical hash of a trigger's "guarded bag" (§5 blocking): the TGD plus
/// the isomorphism type of all configuration facts whose terms all lie in
/// the trigger's frontier image (constants kept concrete, nulls renamed by
/// first occurrence in insertion order). Structural hashing replaces the
/// former string signature, eliminating the per-trigger allocations; a
/// 64-bit collision can only block an extra trigger, the same failure class
/// the blocking condition already tolerates (see DESIGN.md).
uint64_t BagSignature(const CompiledTgd& tgd,
                      const std::vector<ChaseTermId>& assignment,
                      const ChaseConfig& config) {
  std::vector<ChaseTermId> frontier_terms;
  for (int v : tgd.frontier_vars) frontier_terms.push_back(assignment[v]);
  std::sort(frontier_terms.begin(), frontier_terms.end());
  frontier_terms.erase(
      std::unique(frontier_terms.begin(), frontier_terms.end()),
      frontier_terms.end());

  auto in_bag = [&](ChaseTermId t) {
    return TermArena::IsConstant(t) ||
           std::binary_search(frontier_terms.begin(), frontier_terms.end(), t);
  };
  std::unordered_map<ChaseTermId, uint64_t> canon;
  std::vector<uint64_t> fact_hashes;
  for (const FactRef fact : config.facts()) {
    bool local = true;
    for (ChaseTermId t : fact.terms) {
      if (!in_bag(t)) {
        local = false;
        break;
      }
    }
    if (!local) continue;
    uint64_t h =
        static_cast<uint32_t>(fact.relation) * 0x9e3779b97f4a7c15ULL;
    for (ChaseTermId t : fact.terms) {
      if (TermArena::IsConstant(t)) {
        // Tag constants apart from canonicalized nulls.
        h = HashCombine(
            h, (static_cast<uint64_t>(static_cast<uint32_t>(t)) << 1) | 1);
      } else {
        auto [it, inserted] = canon.emplace(t, canon.size());
        h = HashCombine(h, it->second << 1);
      }
    }
    fact_hashes.push_back(h);
  }
  std::sort(fact_hashes.begin(), fact_hashes.end());
  uint64_t sig = std::hash<std::string>{}(tgd.source->name);
  for (uint64_t fh : fact_hashes) sig = sig * 1099511628211ULL + fh;
  return sig;
}

struct Trigger {
  int tgd_index;
  std::vector<ChaseTermId> assignment;
};

/// `atom`'s terms under `assignment`, written into `terms`.
FactRef Instantiate(const PatternAtom& atom,
                    const std::vector<ChaseTermId>& assignment,
                    std::vector<ChaseTermId>& terms) {
  terms.clear();
  for (const auto& slot : atom.slots) {
    terms.push_back(slot.is_variable ? assignment[slot.var_index] : slot.term);
  }
  return FactRef{atom.relation, terms};
}

/// Restricted-chase witness check: true if the head already holds under
/// `assignment`. With no existential variables the head is fully ground, so
/// each head fact is a single hash lookup (its terms built in `scratch`);
/// otherwise the existential positions are left free and the matcher
/// searches for a witness.
bool HeadWitnessed(const CompiledTgd& tgd,
                   const std::vector<ChaseTermId>& assignment,
                   const ChaseConfig& config, MatchStats* stats,
                   std::vector<ChaseTermId>& scratch) {
  if (tgd.existential_vars.empty()) {
    for (const PatternAtom& atom : tgd.head) {
      if (!config.Contains(Instantiate(atom, assignment, scratch))) {
        return false;
      }
    }
    return true;
  }
  std::vector<ChaseTermId> head_assignment(assignment);
  for (int v : tgd.existential_vars) head_assignment[v] = kUnboundTerm;
  return HasHomomorphism(tgd.head, config, std::move(head_assignment),
                         MatchOptions{nullptr, stats});
}

}  // namespace

Result<ChaseStats> ChaseEngine::Run(const std::vector<CompiledTgd>& tgds,
                                    const ChaseOptions& options,
                                    ChaseConfig& config) {
  ChaseStats stats;
  std::unordered_set<uint64_t> fired_bags;
  const bool seminaive =
      options.evaluation_mode == ChaseEvaluationMode::kSemiNaive;
  MatchStats match_stats;
  const MatchOptions plain_match{nullptr, &match_stats};
  auto flush_match_stats = [&] {
    stats.index_probes = match_stats.index_probes;
    stats.candidates_scanned = match_stats.candidates_scanned;
  };
  // Semi-naïve delta discipline: facts with index < delta_begin were already
  // visible before the previous round's additions; [delta_begin, round_end)
  // is the current delta. Facts added during a round become the next delta.
  size_t delta_begin = 0;
  // Per-TGD scratch, reused across passes. `collect` reads the TGD being
  // enumerated through `t`.
  size_t t = 0;
  std::vector<Trigger> triggers;
  std::vector<ChaseTermId> assignment;
  std::vector<FactWindow> windows;
  std::vector<ChaseTermId> head_terms;
  const std::function<bool(const std::vector<ChaseTermId>&)> collect =
      [&](const std::vector<ChaseTermId>& full) {
        ++stats.triggers_enumerated;
        // Restricted chase: skip if the head already has a witness.
        if (HeadWitnessed(tgds[t], full, config, &match_stats, head_terms)) {
          ++stats.witness_skips;
        } else {
          triggers.push_back(Trigger{static_cast<int>(t), full});
        }
        return true;
      };
  bool progress = true;
  while (progress) {
    progress = false;
    ++stats.rounds;
    const size_t round_end = config.size();
    for (t = 0; t < tgds.size(); ++t) {
      if (options.budget != nullptr) {
        // Cooperative cancellation point: one check per TGD pass bounds the
        // staleness of deadline detection to a single enumeration sweep.
        Status budget_status = options.budget->Check();
        if (!budget_status.ok()) {
          flush_match_stats();
          return budget_status;
        }
      }
      const CompiledTgd& tgd = tgds[t];
      // Collect the current triggers first: firing mutates the config, which
      // would invalidate the enumeration.
      triggers.clear();
      assignment.assign(tgd.vars.size(), kUnboundTerm);
      if (!seminaive) {
        // Naive oracle: full re-enumeration against the current config.
        EnumerateHomomorphisms(tgd.body, config, assignment, collect,
                               plain_match);
      } else {
        // Pin each body atom in turn to the delta; earlier atoms are
        // restricted to pre-delta facts and later ones to the round
        // snapshot, so the pinned passes partition the new matches exactly
        // (classic semi-naïve rewriting). In the first round the delta is
        // the whole snapshot and only the first pass can produce matches.
        windows.resize(tgd.body.size());
        const size_t pins = delta_begin == 0 ? std::min<size_t>(
                                                   1, tgd.body.size())
                                             : tgd.body.size();
        for (size_t pin = 0; pin < pins; ++pin) {
          for (size_t a = 0; a < tgd.body.size(); ++a) {
            if (a < pin) {
              windows[a] = FactWindow{0, static_cast<int>(delta_begin)};
            } else if (a == pin) {
              windows[a] = FactWindow{static_cast<int>(delta_begin),
                                      static_cast<int>(round_end)};
            } else {
              windows[a] = FactWindow{0, static_cast<int>(round_end)};
            }
          }
          ++stats.delta_enumerations;
          EnumerateHomomorphisms(tgd.body, config, assignment, collect,
                                 MatchOptions{windows.data(), &match_stats});
        }
      }
      for (Trigger& trigger : triggers) {
        // Re-check: an earlier firing in this round may have satisfied it.
        if (HeadWitnessed(tgd, trigger.assignment, config, &match_stats,
                          head_terms)) {
          ++stats.witness_skips;
          continue;
        }

        // Depth accounting: new nulls live one level below the deepest
        // frontier term.
        int frontier_depth = 0;
        bool all_frontier_deep_nulls = !tgd.frontier_vars.empty();
        for (int v : tgd.frontier_vars) {
          ChaseTermId term = trigger.assignment[v];
          frontier_depth = std::max(frontier_depth, arena_->DepthOf(term));
          if (!TermArena::IsNull(term) || arena_->DepthOf(term) == 0) {
            all_frontier_deep_nulls = false;
          }
        }
        if (!tgd.existential_vars.empty() && options.max_null_depth >= 0 &&
            frontier_depth + 1 > options.max_null_depth) {
          ++stats.depth_capped_triggers;
          continue;
        }
        if (options.use_guarded_blocking && all_frontier_deep_nulls &&
            !tgd.existential_vars.empty()) {
          uint64_t sig = BagSignature(tgd, trigger.assignment, config);
          if (!fired_bags.insert(sig).second) {
            ++stats.blocked_triggers;
            continue;
          }
        }

        if (stats.firings >= options.max_firings) {
          flush_match_stats();
          if (options.fail_on_firing_cap) {
            return ResourceExhaustedError(
                StrCat("chase exceeded ", options.max_firings, " firings"));
          }
          stats.reached_fixpoint = false;
          return stats;
        }
        if (options.budget != nullptr) {
          Status budget_status = options.budget->Check();
          if (!budget_status.ok()) {
            flush_match_stats();
            return budget_status;
          }
        }

        // Fire: invent nulls for the existential variables, add head facts.
        for (int v : tgd.existential_vars) {
          trigger.assignment[v] =
              arena_->NewNull(tgd.vars.name(v), frontier_depth + 1);
        }
        ++stats.firings;
        for (const PatternAtom& atom : tgd.head) {
          if (config.Add(Instantiate(atom, trigger.assignment, head_terms))) {
            ++stats.facts_added;
          }
        }
        progress = true;
      }
    }
    if (seminaive) {
      // Everything visible this round is "old" next round; the facts added
      // while firing form the next delta. No new facts means no new
      // triggers are derivable: fixpoint.
      delta_begin = round_end;
      progress = config.size() > round_end;
    }
  }
  stats.reached_fixpoint = true;
  flush_match_stats();
  return stats;
}

Result<ChaseStats> ChaseEngine::Run(const std::vector<Tgd>& tgds,
                                    const ChaseOptions& options,
                                    ChaseConfig& config) {
  std::vector<CompiledTgd> compiled;
  compiled.reserve(tgds.size());
  for (const Tgd& tgd : tgds) compiled.push_back(CompileTgd(tgd, *arena_));
  return Run(compiled, options, config);
}

CanonicalDatabase BuildCanonicalDatabase(const ConjunctiveQuery& query,
                                         TermArena& arena) {
  CanonicalDatabase canonical;
  for (const std::string& var : query.AllVariables()) {
    canonical.var_to_term.emplace(var, arena.NewNull(var, 0));
  }
  for (const Atom& atom : query.atoms) {
    Fact fact;
    fact.relation = atom.relation;
    fact.terms.reserve(atom.terms.size());
    for (const Term& term : atom.terms) {
      fact.terms.push_back(term.is_variable()
                               ? canonical.var_to_term.at(term.var())
                               : arena.InternConstant(term.constant()));
    }
    canonical.config.Add(fact);
  }
  return canonical;
}

}  // namespace lcp
