#ifndef LCP_CHASE_FACT_H_
#define LCP_CHASE_FACT_H_

#include <string>
#include <vector>

#include "lcp/chase/term_arena.h"
#include "lcp/logic/ids.h"
#include "lcp/schema/schema.h"

namespace lcp {

/// A ground fact of a chase configuration: a relation applied to chase
/// terms (labeled nulls and interned constants).
struct Fact {
  RelationId relation = kInvalidRelation;
  std::vector<ChaseTermId> terms;

  Fact() = default;
  Fact(RelationId rel, std::vector<ChaseTermId> args)
      : relation(rel), terms(std::move(args)) {}

  friend bool operator==(const Fact& a, const Fact& b) {
    return a.relation == b.relation && a.terms == b.terms;
  }
};

struct FactHash {
  size_t operator()(const Fact& f) const { return Hash(f.relation, f.terms); }
  static size_t Hash(RelationId relation,
                     const std::vector<ChaseTermId>& terms) {
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
std::string FactToString(const Fact& fact, const Schema& schema,
                         const TermArena& arena);

}  // namespace lcp

#endif  // LCP_CHASE_FACT_H_
