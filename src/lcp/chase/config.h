#ifndef LCP_CHASE_CONFIG_H_
#define LCP_CHASE_CONFIG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "lcp/chase/fact.h"
#include "lcp/chase/term_arena.h"
#include "lcp/logic/ids.h"

namespace lcp {

/// A chase configuration (§4): a duplicate-free set of facts, with
/// insertion order preserved (facts are a proof log) and per-relation plus
/// positional indexes for homomorphism search. Configurations are value
/// types: search nodes copy them when branching.
class ChaseConfig {
 public:
  ChaseConfig() = default;
  /// Copies transfer the facts but not the positional index: it is lazily
  /// rebuilt (incrementally) on first probe, so branching a search node
  /// stays as cheap as the fact set itself.
  ChaseConfig(const ChaseConfig& other)
      : facts_(other.facts_),
        slots_(other.slots_),
        by_relation_(other.by_relation_) {}
  ChaseConfig& operator=(const ChaseConfig& other) {
    if (this != &other) {
      facts_ = other.facts_;
      slots_ = other.slots_;
      by_relation_ = other.by_relation_;
      by_position_.clear();
      terms_at_.clear();
      indexed_up_to_ = 0;
    }
    return *this;
  }
  ChaseConfig(ChaseConfig&&) = default;
  ChaseConfig& operator=(ChaseConfig&&) = default;

  /// Adds a fact; returns true if it was new.
  bool Add(const Fact& fact);
  bool Contains(const Fact& fact) const {
    return Contains(fact.relation, fact.terms);
  }
  /// Contains(Fact(relation, terms)) without building the fact.
  bool Contains(RelationId relation,
                const std::vector<ChaseTermId>& terms) const {
    return !slots_.empty() &&
           slots_[SlotOf(relation, terms,
                         FactHash::Hash(relation, terms))] >= 0;
  }

  size_t size() const { return facts_.size(); }
  const std::vector<Fact>& facts() const { return facts_; }

  /// Indexes into facts() of the facts over `relation`, ascending.
  const std::vector<int>& FactsOf(RelationId relation) const {
    const size_t r = static_cast<size_t>(relation);
    return r < by_relation_.size() ? by_relation_[r] : kNoFacts;
  }

  /// Indexes into facts() of the facts over `relation` whose term at
  /// `position` equals `term`, ascending. A single hash probe into the
  /// positional index (catching it up with recent Adds first); the matcher
  /// seeds unification from the smallest such candidate list.
  const std::vector<int>& FactsWith(RelationId relation, int position,
                                    ChaseTermId term) const;

  /// All distinct terms occurring in facts over `relation` at `position`,
  /// in first-occurrence order. An index read; O(1) plus the result size.
  const std::vector<ChaseTermId>& TermsAt(RelationId relation,
                                          int position) const;

  /// Extensions smaller than this are cheaper to scan than to index-probe;
  /// the matcher (and other index users) fall back to FactsOf below it.
  static constexpr size_t kIndexProbeThreshold = 8;

  /// Multi-line dump for debugging/exploration logs.
  std::string ToString(const Schema& schema, const TermArena& arena) const;

 private:
  /// Key of the positional index: one bucket per (relation, position, term)
  /// triple that occurs in the configuration.
  struct PosTermKey {
    RelationId relation;
    int32_t position;
    ChaseTermId term;
    friend bool operator==(const PosTermKey& a, const PosTermKey& b) {
      return a.relation == b.relation && a.position == b.position &&
             a.term == b.term;
    }
  };
  struct PosTermKeyHash {
    size_t operator()(const PosTermKey& k) const {
      uint64_t h = static_cast<uint32_t>(k.relation) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(k.position)) +
           0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(k.term)) +
           0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  /// Key of the distinct-terms index: one entry per (relation, position).
  struct PosKey {
    RelationId relation;
    int32_t position;
    friend bool operator==(const PosKey& a, const PosKey& b) {
      return a.relation == b.relation && a.position == b.position;
    }
  };
  struct PosKeyHash {
    size_t operator()(const PosKey& k) const {
      uint64_t h = static_cast<uint32_t>(k.relation) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(k.position)) +
           0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  /// The slot of `slots_` holding the fact (relation, terms), or the empty
  /// slot where it would go. Requires a non-empty table.
  size_t SlotOf(RelationId relation, const std::vector<ChaseTermId>& terms,
                size_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const int32_t index = slots_[i];
      if (index < 0) return i;
      const Fact& fact = facts_[index];
      if (fact.relation == relation && fact.terms == terms) return i;
    }
  }
  /// Doubles `slots_` (at least 16 slots) and re-inserts every fact.
  void GrowSlots();

  /// Brings the positional index up to date: indexes facts
  /// [indexed_up_to_, facts_.size()).
  void EnsureIndexed() const;

  static inline const std::vector<int> kNoFacts;

  std::vector<Fact> facts_;
  /// Duplicate filter: an open-addressing hash set of indexes into facts_
  /// (-1 = empty), a power of two in size and at most half full, so copying
  /// a configuration copies it in one block.
  std::vector<int32_t> slots_;
  /// Indexed by relation id; grown on demand by Add.
  std::vector<std::vector<int>> by_relation_;
  /// Positional index, built lazily: facts_[0, indexed_up_to_) are indexed.
  /// Mutable so that const probes can catch up after Adds and copies.
  mutable std::unordered_map<PosTermKey, std::vector<int>, PosTermKeyHash>
      by_position_;
  mutable std::unordered_map<PosKey, std::vector<ChaseTermId>, PosKeyHash>
      terms_at_;
  mutable size_t indexed_up_to_ = 0;
};

}  // namespace lcp

#endif  // LCP_CHASE_CONFIG_H_
