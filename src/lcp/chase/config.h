#ifndef LCP_CHASE_CONFIG_H_
#define LCP_CHASE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
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
///
/// Layout (DESIGN.md §4): the terms of all facts live in one contiguous
/// array, each fact is a (relation, offset, arity) record into it, and the
/// per-relation index is one array of fact indexes grouped by relation plus
/// per-relation offsets. Copying a configuration is a few block copies, and
/// Add allocates only when an array outgrows its capacity.
class ChaseConfig {
 public:
  ChaseConfig() = default;
  /// Copies transfer the facts but not the positional index: it is lazily
  /// rebuilt (incrementally) on first probe, so branching a search node
  /// stays as cheap as the fact set itself. The copy reserves room to grow,
  /// because a copy is usually extended next.
  ChaseConfig(const ChaseConfig& other) { CopyFacts(other); }
  ChaseConfig& operator=(const ChaseConfig& other) {
    if (this != &other) {
      CopyFacts(other);
      by_position_.clear();
      terms_at_.clear();
      indexed_up_to_ = 0;
    }
    return *this;
  }
  ChaseConfig(ChaseConfig&&) = default;
  ChaseConfig& operator=(ChaseConfig&&) = default;

  /// Adds a fact; returns true if it was new. `fact` may view this
  /// configuration's own facts (say, a fact read with fact(i) under another
  /// relation): its terms are read before anything moves.
  bool Add(FactRef fact);
  bool Contains(FactRef fact) const {
    return !slots_.empty() && slots_[SlotOf(fact, FactHash()(fact))] >= 0;
  }

  size_t size() const { return records_.size(); }

  /// The i-th fact in insertion order. The view stays valid until this
  /// configuration is next modified.
  FactRef fact(size_t i) const {
    const Record& r = records_[i];
    return FactRef{r.relation, std::span<const ChaseTermId>(
                                   terms_.data() + r.offset, r.arity)};
  }

  /// All facts in insertion order, as views (see fact()): a sized,
  /// random-access range.
  auto facts() const {
    return std::views::iota(size_t{0}, size()) |
           std::views::transform([this](size_t i) { return fact(i); });
  }

  /// Indexes into facts() of the facts over `relation`, ascending. Valid
  /// until the next Add.
  std::span<const int> FactsOf(RelationId relation) const {
    const size_t r = static_cast<size_t>(relation);
    if (r + 1 >= relation_begin_.size()) return {};
    return std::span<const int>(relation_facts_.data() + relation_begin_[r],
                                relation_begin_[r + 1] - relation_begin_[r]);
  }

  /// Indexes into facts() of the facts over `relation` whose term at
  /// `position` equals `term`, ascending. A single hash probe into the
  /// positional index (catching it up with recent Adds first); the matcher
  /// seeds unification from the smallest such candidate list. Valid until
  /// the next Add.
  std::span<const int> FactsWith(RelationId relation, int position,
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
  /// One fact: its relation and where its terms sit in terms_.
  struct Record {
    RelationId relation;
    int32_t offset;
    int32_t arity;
  };

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

  /// The slot of `slots_` holding `fact`, or the empty slot where it would
  /// go. Requires a non-empty table.
  size_t SlotOf(FactRef fact, size_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const int32_t index = slots_[i];
      if (index < 0) return i;
      if (this->fact(index) == fact) return i;
    }
  }
  /// Doubles `slots_` (at least 16 slots) and re-inserts every fact.
  void GrowSlots();
  /// Copies every array but the positional index, reserving headroom.
  void CopyFacts(const ChaseConfig& other);

  /// Brings the positional index up to date: indexes facts
  /// [indexed_up_to_, size()).
  void EnsureIndexed() const;

  /// The terms of every fact, fact after fact.
  std::vector<ChaseTermId> terms_;
  /// One record per fact, in insertion order.
  std::vector<Record> records_;
  /// Duplicate filter: an open-addressing hash set of indexes into records_
  /// (-1 = empty), a power of two in size and at most half full.
  std::vector<int32_t> slots_;
  /// Fact indexes grouped by relation, ascending within each group; the
  /// group of relation r is [relation_begin_[r], relation_begin_[r + 1]).
  /// relation_begin_ grows on demand by Add.
  std::vector<int> relation_facts_;
  std::vector<int> relation_begin_;
  /// Positional index, built lazily: facts [0, indexed_up_to_) are indexed.
  /// Mutable so that const probes can catch up after Adds and copies.
  mutable std::unordered_map<PosTermKey, std::vector<int>, PosTermKeyHash>
      by_position_;
  mutable std::unordered_map<PosKey, std::vector<ChaseTermId>, PosKeyHash>
      terms_at_;
  mutable size_t indexed_up_to_ = 0;
};

}  // namespace lcp

#endif  // LCP_CHASE_CONFIG_H_
