#ifndef LCP_RA_BATCH_H_
#define LCP_RA_BATCH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lcp/data/instance.h"
#include "lcp/logic/value.h"
#include "lcp/ra/table.h"

namespace lcp {

/// Dictionary code of a term in a TermPool. Equal codes ⇔ equal Values, so
/// every middleware comparison (selection, join keys, dedup) is a 32-bit
/// integer compare instead of a Value variant compare.
using TermCode = uint32_t;

/// A dictionary-encoding term pool: interns Values once and hands out dense
/// 32-bit codes. One pool is shared by all batches of one plan execution;
/// decoding only happens at the row-Table conversion boundary.
///
/// A pool may be layered over a base pool (a source's dictionary): every
/// value the base holds keeps its base code, and only values the base lacks
/// get codes here, numbered from base->size() on. The base must outlive the
/// layered pool and must not grow while it does, so a value has exactly one
/// code for the layered pool's lifetime.
class TermPool {
 public:
  TermPool() = default;
  explicit TermPool(const TermPool* base)
      : base_(base), base_size_(base != nullptr ? base->size() : 0) {}

  /// Returns the code of `v`, interning it on first sight.
  TermCode Intern(const Value& v);

  /// The code of `v` if the pool (or its base) holds it; never interns.
  std::optional<TermCode> Find(const Value& v) const;

  const Value& Decode(TermCode code) const {
    if (code < base_size_) return base_->Decode(code);
    LCP_CHECK_LT(static_cast<size_t>(code) - base_size_, values_.size());
    return values_[code - base_size_];
  }

  size_t size() const { return base_size_ + values_.size(); }

  /// The pool this one is layered over, or null.
  const TermPool* base() const { return base_; }

 private:
  const TermPool* base_ = nullptr;
  size_t base_size_ = 0;
  std::unordered_map<Value, TermCode, ValueHash> codes_;
  std::vector<Value> values_;
};

/// An append-only set of fixed-width TermCode keys that numbers its keys
/// densely in insertion order. Keys are stored flat (`width` codes per id);
/// lookup is open addressing over a power-of-two slot table that doubles at
/// half load. The access-binding dedup and SimulatedSource's per-method
/// index both use it, so neither hashes a Value per binding. Width 0 is
/// allowed: the empty key then is the only key.
class CodeKeySet {
 public:
  explicit CodeKeySet(size_t width, size_t expected_keys = 0);

  /// The id of `key` (`width` codes), adding it with the next id if absent.
  uint32_t Insert(const TermCode* key);

  size_t size() const { return size_; }
  size_t width() const { return width_; }
  /// Hands over every key, `width` codes per id in id order, and leaves the
  /// set empty.
  std::vector<TermCode> ReleaseKeys();

 private:
  const TermCode* key(uint32_t id) const {
    return keys_.data() + static_cast<size_t>(id) * width_;
  }
  size_t Hash(const TermCode* key) const;
  bool KeyEquals(uint32_t id, const TermCode* key) const;
  void Grow();

  size_t width_;
  size_t size_ = 0;
  std::vector<TermCode> keys_;
  /// id + 1 per occupied slot, 0 when empty.
  std::vector<uint32_t> slots_;
};

/// A columnar batch: named attributes over fixed-width TermCode vectors,
/// plus an optional selection vector. Columns are shared (copy-on-write by
/// convention: a materialized column is never mutated), so projection and
/// rename are O(#columns) pointer shuffles and selection is a new index
/// vector over the same storage.
///
/// Row order is part of the contract: live rows enumerate in a canonical
/// first-appearance order that mirrors the row engine's insertion order,
/// which is what makes the vectorized engine bit-identical to the row
/// oracle (same tables, same binding sequences — see DESIGN.md §9).
class ColumnBatch {
 public:
  using Column = std::shared_ptr<const std::vector<TermCode>>;

  ColumnBatch() = default;

  /// A batch with the given attributes and no rows (columns start empty).
  explicit ColumnBatch(std::vector<std::string> attrs);

  /// Builds a dense batch (no selection vector) from materialized columns.
  /// All columns must have length `num_rows`; a nullary batch (no columns)
  /// carries `num_rows` explicitly.
  static ColumnBatch FromDense(std::vector<std::string> attrs,
                               std::vector<std::vector<TermCode>> columns,
                               size_t num_rows);

  const std::vector<std::string>& attrs() const { return attrs_; }
  size_t num_attrs() const { return attrs_.size(); }

  /// Index of `attr` (first occurrence), or -1 if absent.
  int AttrIndex(const std::string& attr) const;

  /// Number of live rows (selection applied).
  size_t num_rows() const {
    return has_selection_ ? selection_.size() : physical_rows_;
  }
  bool empty() const { return num_rows() == 0; }
  bool has_selection() const { return has_selection_; }

  /// Code of live row `i` in column `col`.
  TermCode At(size_t col, size_t i) const {
    return (*columns_[col])[has_selection_ ? selection_[i] : i];
  }

  /// Restricts the batch to the live rows listed in `live` (indices into
  /// the current live enumeration, in the order they should survive).
  /// Shares column storage.
  ColumnBatch Filtered(std::vector<uint32_t> live) const;

  /// Reorders/renames columns: output column j is this batch's column
  /// `cols[j]` under the name `attrs[j]`. Shares storage and selection.
  ColumnBatch WithColumns(std::vector<std::string> attrs,
                          const std::vector<int>& cols) const;

  /// Keeps the first occurrence of every distinct live row (set semantics),
  /// preserving first-appearance order. Shares column storage. When
  /// `dropped` is non-null it receives the number of duplicates removed.
  ColumnBatch Deduplicated(size_t* dropped = nullptr) const;

  /// Decodes into an attribute-named row Table (the conversion boundary to
  /// the planner/service world). Live rows only, in live order. The batch
  /// must hold no duplicate rows, as every batch the vectorized engine
  /// stores or returns does (DESIGN.md §9): rows go in without a dedup
  /// probe.
  Table ToTable(const TermPool& pool) const;

 private:
  std::vector<std::string> attrs_;
  std::vector<Column> columns_;
  size_t physical_rows_ = 0;
  bool has_selection_ = false;
  /// Physical row ids of the live rows, in live order.
  std::vector<uint32_t> selection_;
};

/// Hash of one live row of a batch across the given columns (FNV-style over
/// the codes). Used by the join, dedup and difference.
size_t HashBatchRow(const ColumnBatch& batch, const std::vector<int>& cols,
                    size_t i);

/// Flat chained hash index over precomputed row hashes: a power-of-two
/// bucket array of chain heads plus per-entry next links. Unlike
/// unordered_multimap there is no per-entry heap node, which is what makes
/// the batch join/dedup passes cheap. Bucket candidates may include rows
/// with different hashes; callers verify with a full key/row comparison.
class RowHashIndex {
 public:
  explicit RowHashIndex(size_t expected_entries) {
    size_t buckets = 8;
    while (buckets < expected_entries + (expected_entries >> 1)) {
      buckets <<= 1;
    }
    mask_ = buckets - 1;
    heads_.assign(buckets, kNil);
    entries_.reserve(expected_entries);
  }

  void Insert(size_t hash, uint32_t row) {
    const size_t b = hash & mask_;
    entries_.push_back(Entry{heads_[b], row});
    heads_[b] = static_cast<int32_t>(entries_.size() - 1);
  }

  /// Calls fn(row) for every candidate in `hash`'s bucket, most recent
  /// first, until fn returns true (found) or the chain ends.
  template <typename Fn>
  void ForEachCandidate(size_t hash, Fn&& fn) const {
    for (int32_t e = heads_[hash & mask_]; e != kNil; e = entries_[e].next) {
      if (fn(entries_[e].row)) return;
    }
  }

 private:
  static constexpr int32_t kNil = -1;
  struct Entry {
    int32_t next;
    uint32_t row;
  };
  size_t mask_ = 0;
  std::vector<int32_t> heads_;
  std::vector<Entry> entries_;
};

}  // namespace lcp

#endif  // LCP_RA_BATCH_H_
