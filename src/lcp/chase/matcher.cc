#include "lcp/chase/matcher.h"

#include <algorithm>

namespace lcp {

int VariableTable::IndexOf(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  int idx = static_cast<int>(names_.size());
  names_.push_back(name);
  index_.emplace(name, idx);
  return idx;
}

std::vector<PatternAtom> CompileAtoms(const std::vector<Atom>& atoms,
                                      VariableTable& vars, TermArena& arena) {
  std::vector<PatternAtom> compiled;
  compiled.reserve(atoms.size());
  for (const Atom& atom : atoms) {
    PatternAtom pattern;
    pattern.relation = atom.relation;
    pattern.slots.reserve(atom.terms.size());
    for (const Term& term : atom.terms) {
      PatternAtom::Slot slot;
      if (term.is_variable()) {
        slot.is_variable = true;
        slot.var_index = vars.IndexOf(term.var());
      } else {
        slot.is_variable = false;
        slot.term = arena.InternConstant(term.constant());
      }
      pattern.slots.push_back(slot);
    }
    compiled.push_back(std::move(pattern));
  }
  return compiled;
}

namespace {

/// A contiguous run of candidate fact indexes (ascending).
struct CandidateSpan {
  const int* begin = nullptr;
  const int* end = nullptr;
  size_t size() const { return static_cast<size_t>(end - begin); }
};

/// The cheapest candidate list for `atom` under `assignment`: the smallest
/// positional-index bucket over its bound slots (constants and bound
/// variables), falling back to the relation extension when nothing is bound,
/// clipped to the atom's fact window. Index buckets and relation extensions
/// are ascending, so window clipping is a binary search.
CandidateSpan BestCandidates(const PatternAtom& atom, int atom_index,
                             const ChaseConfig& config,
                             const std::vector<ChaseTermId>& assignment,
                             const MatchOptions& options) {
  std::span<const int> list = config.FactsOf(atom.relation);
  // Small extensions are cheaper to scan than to index-probe (and probing
  // would force lazy index maintenance on small, copy-heavy configs).
  if (list.size() > ChaseConfig::kIndexProbeThreshold) {
    for (size_t s = 0; s < atom.slots.size() && !list.empty(); ++s) {
      const auto& slot = atom.slots[s];
      ChaseTermId bound =
          slot.is_variable ? assignment[slot.var_index] : slot.term;
      if (bound == kUnboundTerm) continue;
      std::span<const int> bucket =
          config.FactsWith(atom.relation, static_cast<int>(s), bound);
      if (options.stats != nullptr) ++options.stats->index_probes;
      if (bucket.size() < list.size()) list = bucket;
    }
  }
  CandidateSpan span{list.data(), list.data() + list.size()};
  if (options.windows != nullptr) {
    const FactWindow& window = options.windows[atom_index];
    span.begin = std::lower_bound(span.begin, span.end, window.begin);
    span.end = std::lower_bound(span.begin, span.end, window.end);
  }
  return span;
}

/// State shared by every level of one enumeration: which atoms are matched
/// and the trail of variables bound along the current path (each level
/// unbinds back to its own mark, so no level allocates).
struct MatchState {
  const std::vector<PatternAtom>& atoms;
  const ChaseConfig& config;
  std::vector<ChaseTermId>& assignment;
  const std::function<bool(const std::vector<ChaseTermId>&)>& on_match;
  const MatchOptions& options;
  std::vector<bool> done;
  std::vector<int> trail;
};

bool MatchRecursive(MatchState& st, size_t remaining) {
  if (remaining == 0) {
    return st.on_match(st.assignment);
  }
  // Pick the pending atom with the fewest candidates.
  int best = -1;
  CandidateSpan best_span;
  size_t best_size = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < st.atoms.size(); ++i) {
    if (st.done[i]) continue;
    CandidateSpan span = BestCandidates(st.atoms[i], static_cast<int>(i),
                                        st.config, st.assignment, st.options);
    if (span.size() < best_size) {
      best = static_cast<int>(i);
      best_span = span;
      best_size = span.size();
      if (best_size == 0) break;  // No match possible: prune immediately.
    }
  }
  const PatternAtom& atom = st.atoms[best];
  st.done[best] = true;
  bool keep_going = true;
  const size_t mark = st.trail.size();
  for (const int* it = best_span.begin; it != best_span.end; ++it) {
    const FactRef fact = st.config.fact(*it);
    if (st.options.stats != nullptr) ++st.options.stats->candidates_scanned;
    // Try to unify `fact` with `atom` under the current assignment.
    bool consistent = true;
    for (size_t s = 0; s < atom.slots.size() && consistent; ++s) {
      const auto& slot = atom.slots[s];
      ChaseTermId fact_term = fact.terms[s];
      if (!slot.is_variable) {
        consistent = (slot.term == fact_term);
      } else if (st.assignment[slot.var_index] != kUnboundTerm) {
        consistent = (st.assignment[slot.var_index] == fact_term);
      } else {
        st.assignment[slot.var_index] = fact_term;
        st.trail.push_back(slot.var_index);
      }
    }
    if (consistent) keep_going = MatchRecursive(st, remaining - 1);
    while (st.trail.size() > mark) {
      st.assignment[st.trail.back()] = kUnboundTerm;
      st.trail.pop_back();
    }
    if (!keep_going) break;
  }
  st.done[best] = false;
  return keep_going;
}

}  // namespace

void EnumerateHomomorphisms(
    const std::vector<PatternAtom>& atoms, const ChaseConfig& config,
    std::vector<ChaseTermId>& assignment,
    const std::function<bool(const std::vector<ChaseTermId>&)>& on_match,
    const MatchOptions& options) {
  if (atoms.empty()) {
    on_match(assignment);
    return;
  }
  // An atom over an empty relation admits no match: skip the set-up.
  for (const PatternAtom& atom : atoms) {
    if (config.FactsOf(atom.relation).empty()) return;
  }
  MatchState state{atoms, config, assignment, on_match, options,
                   std::vector<bool>(atoms.size(), false), {}};
  state.trail.reserve(assignment.size());
  MatchRecursive(state, atoms.size());
}

bool HasHomomorphism(const std::vector<PatternAtom>& atoms,
                     const ChaseConfig& config,
                     std::vector<ChaseTermId> assignment,
                     const MatchOptions& options) {
  bool found = false;
  EnumerateHomomorphisms(
      atoms, config, assignment,
      [&](const std::vector<ChaseTermId>&) {
        found = true;
        return false;
      },
      options);
  return found;
}

}  // namespace lcp
