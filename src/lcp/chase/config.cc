#include "lcp/chase/config.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace lcp {

namespace {

const std::vector<ChaseTermId> kNoTerms;

/// Copies `from` into `to` with room for half as many elements again, so
/// the Adds that usually follow a copy do not reallocate at once.
template <typename T>
void CopyWithHeadroom(std::vector<T>& to, const std::vector<T>& from) {
  to.reserve(from.size() + from.size() / 2 + 8);
  to.assign(from.begin(), from.end());
}

}  // namespace

void ChaseConfig::CopyFacts(const ChaseConfig& other) {
  CopyWithHeadroom(terms_, other.terms_);
  CopyWithHeadroom(records_, other.records_);
  CopyWithHeadroom(relation_facts_, other.relation_facts_);
  slots_ = other.slots_;
  relation_begin_ = other.relation_begin_;
}

bool ChaseConfig::Add(FactRef fact) {
  const size_t hash = FactHash()(fact);
  if (!slots_.empty() && slots_[SlotOf(fact, hash)] >= 0) return false;
  if (2 * (records_.size() + 1) > slots_.size()) GrowSlots();
  const int index = static_cast<int>(records_.size());
  slots_[SlotOf(fact, hash)] = index;

  // Append the terms. A view of this configuration's own terms is re-read
  // by offset, since growing terms_ may move them.
  const size_t offset = terms_.size();
  const size_t arity = fact.terms.size();
  const ChaseTermId* source = fact.terms.data();
  const std::less<const ChaseTermId*> before;
  if (arity > 0 && !before(source, terms_.data()) &&
      before(source, terms_.data() + offset)) {
    const size_t source_offset = static_cast<size_t>(source - terms_.data());
    terms_.resize(offset + arity);
    std::copy_n(terms_.begin() + source_offset, arity,
                terms_.begin() + offset);
  } else {
    terms_.insert(terms_.end(), fact.terms.begin(), fact.terms.end());
  }
  records_.push_back(Record{fact.relation, static_cast<int32_t>(offset),
                            static_cast<int32_t>(arity)});

  // File the index at the end of its relation's group.
  const size_t r = static_cast<size_t>(fact.relation);
  if (r + 1 >= relation_begin_.size()) {
    relation_begin_.resize(r + 2, static_cast<int>(relation_facts_.size()));
  }
  relation_facts_.insert(relation_facts_.begin() + relation_begin_[r + 1],
                         index);
  for (size_t q = r + 1; q < relation_begin_.size(); ++q) ++relation_begin_[q];
  return true;
}

void ChaseConfig::GrowSlots() {
  slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), -1);
  for (size_t i = 0; i < records_.size(); ++i) {
    slots_[SlotOf(fact(i), FactHash()(fact(i)))] = static_cast<int32_t>(i);
  }
}

void ChaseConfig::EnsureIndexed() const {
  for (; indexed_up_to_ < records_.size(); ++indexed_up_to_) {
    const FactRef f = fact(indexed_up_to_);
    for (int32_t pos = 0; pos < static_cast<int32_t>(f.terms.size()); ++pos) {
      std::vector<int>& bucket =
          by_position_[PosTermKey{f.relation, pos, f.terms[pos]}];
      if (bucket.empty()) {
        // First occurrence of this term at (relation, position): record it in
        // the distinct-terms index.
        terms_at_[PosKey{f.relation, pos}].push_back(f.terms[pos]);
      }
      bucket.push_back(static_cast<int>(indexed_up_to_));
    }
  }
}

std::span<const int> ChaseConfig::FactsWith(RelationId relation, int position,
                                            ChaseTermId term) const {
  EnsureIndexed();
  auto it = by_position_.find(
      PosTermKey{relation, static_cast<int32_t>(position), term});
  if (it == by_position_.end()) return {};
  return it->second;
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
  for (FactRef f : facts()) {
    os << "  " << FactToString(f, schema, arena) << "\n";
  }
  return os.str();
}

}  // namespace lcp
