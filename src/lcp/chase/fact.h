#ifndef LCP_CHASE_FACT_H_
#define LCP_CHASE_FACT_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "lcp/chase/term_arena.h"
#include "lcp/logic/ids.h"
#include "lcp/schema/schema.h"

namespace lcp {

/// A read-only view of a ground fact: a relation applied to borrowed chase
/// terms. A view read from a ChaseConfig (fact(i), facts()) stays valid
/// until that configuration is next modified (Add, assignment, move) or
/// destroyed; a view of a Fact, while the Fact lives unmodified.
struct FactRef {
  RelationId relation = kInvalidRelation;
  std::span<const ChaseTermId> terms;

  friend bool operator==(FactRef a, FactRef b) {
    return a.relation == b.relation && std::ranges::equal(a.terms, b.terms);
  }
};

/// A ground fact that owns its terms (labeled nulls and interned constants),
/// for building facts outside a configuration.
struct Fact {
  RelationId relation = kInvalidRelation;
  std::vector<ChaseTermId> terms;

  Fact() = default;
  Fact(RelationId rel, std::vector<ChaseTermId> args)
      : relation(rel), terms(std::move(args)) {}
  /// Copies a view's terms.
  explicit Fact(FactRef ref)
      : relation(ref.relation), terms(ref.terms.begin(), ref.terms.end()) {}

  operator FactRef() const { return FactRef{relation, terms}; }

  friend bool operator==(const Fact& a, const Fact& b) {
    return a.relation == b.relation && a.terms == b.terms;
  }
};

struct FactHash {
  size_t operator()(FactRef f) const { return Hash(f.relation, f.terms); }
  static size_t Hash(RelationId relation,
                     std::span<const ChaseTermId> terms) {
    size_t h = static_cast<size_t>(relation) * 0x9e3779b97f4a7c15ULL;
    for (ChaseTermId t : terms) {
      h ^= static_cast<size_t>(static_cast<uint32_t>(t)) + 0x9e3779b9 +
           (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// Renders "R(eid_0, "smith")" style output for debugging and exploration
/// dumps.
std::string FactToString(FactRef fact, const Schema& schema,
                         const TermArena& arena);

}  // namespace lcp

#endif  // LCP_CHASE_FACT_H_
