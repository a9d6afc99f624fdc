#ifndef LCP_RA_TABLE_H_
#define LCP_RA_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "lcp/data/instance.h"

namespace lcp {

/// A temporary (middleware) table: named attributes plus a duplicate-free
/// set of rows. Plans identify columns by attribute name; in proof-derived
/// plans the attribute names are the display names of chase constants (§4).
class Table {
 public:
  Table() = default;
  explicit Table(std::vector<std::string> attrs) : attrs_(std::move(attrs)) {
    BuildAttrIndex();
  }

  const std::vector<std::string>& attrs() const { return attrs_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Index of `attr` (first occurrence), or -1 if absent. O(1): the
  /// attr → index map is built when the attribute list is set.
  int AttrIndex(const std::string& attr) const {
    auto it = attr_index_.find(attr);
    return it == attr_index_.end() ? -1 : it->second;
  }

  /// A table over `rows`, which the caller guarantees are pairwise
  /// distinct (every batch the vectorized engine holds is): they are stored
  /// without a dedup probe, and the dedup index is built by the first
  /// Insert.
  static Table FromDistinctRows(std::vector<std::string> attrs,
                                std::vector<Tuple> rows);

  /// Pre-sizes row storage and the dedup index for `n` expected rows.
  void Reserve(size_t n);

  /// Inserts a row (set semantics); returns false on duplicate. The dedup
  /// index stores (hash, row index) pairs, not tuple copies: a duplicate
  /// probe hashes the candidate once and compares it against the rows
  /// already stored in `rows_`.
  bool Insert(Tuple row);

  /// Probes the dedup index; rows not indexed yet (FromDistinctRows) are
  /// compared one by one, so a const table is never modified.
  bool ContainsRow(const Tuple& row) const;

  /// Renders an aligned ASCII table (for examples and debugging).
  std::string ToString() const;

 private:
  void BuildAttrIndex();

  std::vector<std::string> attrs_;
  /// First index of each attribute name (names may repeat; first one wins,
  /// matching the historic linear scan).
  std::unordered_map<std::string, int> attr_index_;
  std::vector<Tuple> rows_;
  /// Dedup index: tuple hash → indexes into rows_ (chained to survive hash
  /// collisions). Holds no tuple data of its own.
  std::unordered_multimap<size_t, uint32_t> dedup_;
  /// rows_[0, indexed_) are in dedup_; the rest came from FromDistinctRows.
  size_t indexed_ = 0;
};

}  // namespace lcp

#endif  // LCP_RA_TABLE_H_
