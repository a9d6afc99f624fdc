#include "lcp/chase/config.h"

#include <sstream>

namespace lcp {

namespace {
const std::vector<ChaseTermId> kNoTerms;
}  // namespace

bool ChaseConfig::Add(const Fact& fact) {
  const size_t hash = FactHash::Hash(fact.relation, fact.terms);
  if (!slots_.empty() &&
      slots_[SlotOf(fact.relation, fact.terms, hash)] >= 0) {
    return false;
  }
  if (2 * (facts_.size() + 1) > slots_.size()) GrowSlots();
  slots_[SlotOf(fact.relation, fact.terms, hash)] =
      static_cast<int32_t>(facts_.size());
  const size_t r = static_cast<size_t>(fact.relation);
  if (r >= by_relation_.size()) by_relation_.resize(r + 1);
  by_relation_[r].push_back(static_cast<int>(facts_.size()));
  facts_.push_back(fact);
  return true;
}

void ChaseConfig::GrowSlots() {
  slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), -1);
  for (size_t i = 0; i < facts_.size(); ++i) {
    const Fact& fact = facts_[i];
    slots_[SlotOf(fact.relation, fact.terms,
                  FactHash::Hash(fact.relation, fact.terms))] =
        static_cast<int32_t>(i);
  }
}

void ChaseConfig::EnsureIndexed() const {
  for (; indexed_up_to_ < facts_.size(); ++indexed_up_to_) {
    const Fact& fact = facts_[indexed_up_to_];
    for (int32_t pos = 0; pos < static_cast<int32_t>(fact.terms.size());
         ++pos) {
      std::vector<int>& bucket =
          by_position_[PosTermKey{fact.relation, pos, fact.terms[pos]}];
      if (bucket.empty()) {
        // First occurrence of this term at (relation, position): record it in
        // the distinct-terms index.
        terms_at_[PosKey{fact.relation, pos}].push_back(fact.terms[pos]);
      }
      bucket.push_back(static_cast<int>(indexed_up_to_));
    }
  }
}

const std::vector<int>& ChaseConfig::FactsWith(RelationId relation,
                                               int position,
                                               ChaseTermId term) const {
  EnsureIndexed();
  auto it = by_position_.find(
      PosTermKey{relation, static_cast<int32_t>(position), term});
  return it == by_position_.end() ? kNoFacts : it->second;
}

const std::vector<ChaseTermId>& ChaseConfig::TermsAt(RelationId relation,
                                                     int position) const {
  EnsureIndexed();
  auto it = terms_at_.find(PosKey{relation, static_cast<int32_t>(position)});
  return it == terms_at_.end() ? kNoTerms : it->second;
}

std::string ChaseConfig::ToString(const Schema& schema,
                                  const TermArena& arena) const {
  std::ostringstream os;
  for (const Fact& fact : facts_) {
    os << "  " << FactToString(fact, schema, arena) << "\n";
  }
  return os.str();
}

}  // namespace lcp
