#include "lcp/service/canonical.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "lcp/base/strings.h"
#include "lcp/logic/term.h"

namespace lcp {

namespace {

/// Above this many recursive steps the tie-break search stops branching and
/// finishes greedily (first minimal candidate only). Only pathologically
/// symmetric queries get near it; the result stays a deterministic, exact
/// description of the query — worst case some α-equivalent inputs map to
/// different keys and miss cache sharing.
constexpr int kMaxSearchSteps = 20000;

class Canonicalizer {
 public:
  explicit Canonicalizer(const ConjunctiveQuery& query) {
    for (size_t i = 0; i < query.free_variables.size(); ++i) {
      free_index_.emplace(query.free_variables[i], static_cast<int>(i));
    }
    // Conjunction is idempotent: exact duplicate atoms cannot change the
    // query's semantics or its plans, so drop them before ordering.
    for (const Atom& atom : query.atoms) {
      if (std::find(atoms_.begin(), atoms_.end(), atom) == atoms_.end()) {
        atoms_.push_back(atom);
      }
    }
  }

  std::vector<std::string> Run() {
    std::vector<bool> used(atoms_.size(), false);
    std::unordered_map<std::string, int> numbering;
    std::vector<std::string> prefix;
    prefix.reserve(atoms_.size());
    Search(used, numbering, 0, prefix);
    return best_;
  }

 private:
  /// Renders `atom` under `numbering`; existential variables not yet
  /// numbered get tentative numbers next_e, next_e+1, ... in order of first
  /// occurrence within the atom (recorded in `newly_numbered`).
  std::string Render(const Atom& atom,
                     const std::unordered_map<std::string, int>& numbering,
                     int next_e,
                     std::vector<std::string>* newly_numbered) const {
    std::string out = StrCat("R", atom.relation, "(");
    std::unordered_map<std::string, int> tentative;
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const Term& t = atom.terms[i];
      if (i > 0) out += ",";
      if (t.is_constant()) {
        t.constant().AppendKey(out);
        continue;
      }
      auto free_it = free_index_.find(t.var());
      if (free_it != free_index_.end()) {
        out += StrCat("f", free_it->second);
        continue;
      }
      auto it = numbering.find(t.var());
      int number;
      if (it != numbering.end()) {
        number = it->second;
      } else {
        auto [tent_it, inserted] = tentative.emplace(
            t.var(), next_e + static_cast<int>(tentative.size()));
        number = tent_it->second;
        if (inserted && newly_numbered != nullptr) {
          newly_numbered->push_back(t.var());
        }
      }
      out += StrCat("e", number);
    }
    out += ")";
    return out;
  }

  void Search(std::vector<bool>& used,
              std::unordered_map<std::string, int>& numbering, int next_e,
              std::vector<std::string>& prefix) {
    ++steps_;
    size_t depth = prefix.size();
    if (depth == atoms_.size()) {
      if (best_.empty() || prefix < best_) best_ = prefix;
      return;
    }
    // Prune against the best complete rendering: once the current prefix is
    // lexicographically greater than the best's prefix, no completion can
    // win. (A *smaller* prefix always wins, whatever comes later.)
    if (!best_.empty() &&
        std::lexicographical_compare(best_.begin(), best_.begin() + depth,
                                     prefix.begin(), prefix.end())) {
      return;
    }

    // Render every unused atom and keep only the lexicographically minimal
    // candidates; exact rendering ties are genuinely isomorphic choices and
    // each must be explored (unless the step cap forces greed).
    std::string min_render;
    std::vector<int> min_atoms;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (used[i]) continue;
      std::string r = Render(atoms_[i], numbering, next_e, nullptr);
      if (min_atoms.empty() || r < min_render) {
        min_render = std::move(r);
        min_atoms.assign(1, static_cast<int>(i));
      } else if (r == min_render) {
        min_atoms.push_back(static_cast<int>(i));
      }
    }
    if (steps_ > kMaxSearchSteps) min_atoms.resize(1);

    for (int atom_index : min_atoms) {
      std::vector<std::string> newly;
      std::string line =
          Render(atoms_[atom_index], numbering, next_e, &newly);
      used[atom_index] = true;
      for (size_t k = 0; k < newly.size(); ++k) {
        numbering.emplace(newly[k], next_e + static_cast<int>(k));
      }
      prefix.push_back(std::move(line));
      Search(used, numbering, next_e + static_cast<int>(newly.size()), prefix);
      prefix.pop_back();
      for (const std::string& v : newly) numbering.erase(v);
      used[atom_index] = false;
    }
  }

  std::unordered_map<std::string, int> free_index_;
  std::vector<Atom> atoms_;
  std::vector<std::string> best_;
  int steps_ = 0;
};

uint64_t HashKey(const std::string& key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

QueryFingerprint CanonicalizeQuery(const ConjunctiveQuery& query) {
  Canonicalizer canonicalizer(query);
  std::vector<std::string> lines = canonicalizer.Run();
  QueryFingerprint fp;
  fp.key = StrCat("F", query.free_variables.size(), ";", StrJoin(lines, ";"));
  fp.hash = HashKey(fp.key);
  return fp;
}

uint64_t FingerprintKeyHash(const std::string& key) { return HashKey(key); }

}  // namespace lcp
