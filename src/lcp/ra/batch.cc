#include "lcp/ra/batch.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "lcp/base/check.h"

namespace lcp {

TermCode TermPool::Intern(const Value& v) {
  if (base_ != nullptr) {
    if (std::optional<TermCode> code = base_->Find(v)) return *code;
  }
  auto it = codes_.find(v);
  if (it != codes_.end()) return it->second;
  LCP_CHECK_LT(size(),
               static_cast<size_t>(std::numeric_limits<TermCode>::max()))
      << "term pool overflow";
  TermCode code = static_cast<TermCode>(size());
  values_.push_back(v);
  codes_.emplace(values_.back(), code);
  return code;
}

std::optional<TermCode> TermPool::Find(const Value& v) const {
  if (base_ != nullptr) {
    if (std::optional<TermCode> code = base_->Find(v)) return code;
  }
  auto it = codes_.find(v);
  if (it == codes_.end()) return std::nullopt;
  return it->second;
}

CodeKeySet::CodeKeySet(size_t width, size_t expected_keys) : width_(width) {
  size_t slots = 16;
  while (slots < 2 * expected_keys) slots <<= 1;
  slots_.assign(slots, 0);
  keys_.reserve(expected_keys * width_);
}

size_t CodeKeySet::Hash(const TermCode* key) const {
  size_t h = 0x811c9dc5;
  for (size_t c = 0; c < width_; ++c) {
    h ^= static_cast<size_t>(key[c]) + 0x9e3779b97f4a7c15ULL;
    h *= 0x01000193;
  }
  // Finalize so the slot mask sees high-bit differences too.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

bool CodeKeySet::KeyEquals(uint32_t id, const TermCode* key) const {
  const TermCode* stored = this->key(id);
  for (size_t c = 0; c < width_; ++c) {
    if (stored[c] != key[c]) return false;
  }
  return true;
}

uint32_t CodeKeySet::Insert(const TermCode* key) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t s = Hash(key) & mask;
  for (; slots_[s] != 0; s = (s + 1) & mask) {
    if (KeyEquals(slots_[s] - 1, key)) return slots_[s] - 1;
  }
  LCP_CHECK_LT(size_, static_cast<size_t>(std::numeric_limits<uint32_t>::max()))
      << "code key set overflow";
  const uint32_t id = static_cast<uint32_t>(size_++);
  keys_.insert(keys_.end(), key, key + width_);
  slots_[s] = id + 1;
  return id;
}

void CodeKeySet::Grow() {
  slots_.assign(slots_.size() * 2, 0);
  const size_t mask = slots_.size() - 1;
  for (uint32_t id = 0; id < size_; ++id) {
    size_t s = Hash(key(id)) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = id + 1;
  }
}

std::vector<TermCode> CodeKeySet::ReleaseKeys() {
  std::vector<TermCode> keys = std::move(keys_);
  keys_.clear();
  size_ = 0;
  std::fill(slots_.begin(), slots_.end(), 0);
  return keys;
}

ColumnBatch::ColumnBatch(std::vector<std::string> attrs)
    : attrs_(std::move(attrs)) {
  columns_.reserve(attrs_.size());
  auto empty = std::make_shared<const std::vector<TermCode>>();
  for (size_t i = 0; i < attrs_.size(); ++i) columns_.push_back(empty);
}

ColumnBatch ColumnBatch::FromDense(std::vector<std::string> attrs,
                                   std::vector<std::vector<TermCode>> columns,
                                   size_t num_rows) {
  LCP_CHECK_EQ(attrs.size(), columns.size());
  ColumnBatch batch;
  batch.attrs_ = std::move(attrs);
  batch.physical_rows_ = num_rows;
  batch.columns_.reserve(columns.size());
  for (auto& col : columns) {
    LCP_CHECK_EQ(col.size(), num_rows) << "ragged batch column";
    batch.columns_.push_back(
        std::make_shared<const std::vector<TermCode>>(std::move(col)));
  }
  return batch;
}

int ColumnBatch::AttrIndex(const std::string& attr) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i] == attr) return static_cast<int>(i);
  }
  return -1;
}

ColumnBatch ColumnBatch::Filtered(std::vector<uint32_t> live) const {
  ColumnBatch out;
  out.attrs_ = attrs_;
  out.columns_ = columns_;
  out.physical_rows_ = physical_rows_;
  out.has_selection_ = true;
  if (has_selection_) {
    // Compose: map live indices through the current selection.
    out.selection_.reserve(live.size());
    for (uint32_t i : live) out.selection_.push_back(selection_[i]);
  } else {
    out.selection_ = std::move(live);
  }
  return out;
}

ColumnBatch ColumnBatch::WithColumns(std::vector<std::string> attrs,
                                     const std::vector<int>& cols) const {
  LCP_CHECK_EQ(attrs.size(), cols.size());
  ColumnBatch out;
  out.attrs_ = std::move(attrs);
  out.columns_.reserve(cols.size());
  for (int c : cols) {
    LCP_CHECK(c >= 0 && static_cast<size_t>(c) < columns_.size());
    out.columns_.push_back(columns_[c]);
  }
  out.physical_rows_ = physical_rows_;
  out.has_selection_ = has_selection_;
  out.selection_ = selection_;
  return out;
}

size_t HashBatchRow(const ColumnBatch& batch, const std::vector<int>& cols,
                    size_t i) {
  size_t h = 0x811c9dc5;
  for (int c : cols) {
    h ^= static_cast<size_t>(batch.At(static_cast<size_t>(c), i)) +
         0x9e3779b97f4a7c15ULL;
    h *= 0x01000193;
  }
  return h;
}

namespace {

/// True if live rows `a` and `b` agree on every column in `cols`.
bool RowsEqual(const ColumnBatch& batch, const std::vector<int>& cols,
               size_t a, size_t b) {
  for (int c : cols) {
    const size_t col = static_cast<size_t>(c);
    if (batch.At(col, a) != batch.At(col, b)) return false;
  }
  return true;
}

}  // namespace

ColumnBatch ColumnBatch::Deduplicated(size_t* dropped) const {
  std::vector<int> all_cols(attrs_.size());
  for (size_t c = 0; c < attrs_.size(); ++c) all_cols[c] = static_cast<int>(c);
  const size_t n = num_rows();
  // Nullary batch: set semantics collapse to at most one row.
  if (attrs_.empty()) {
    if (dropped != nullptr) *dropped = n > 1 ? n - 1 : 0;
    if (n <= 1) return *this;
    return Filtered({0});
  }
  std::vector<uint32_t> keep;
  keep.reserve(n);
  RowHashIndex seen(n);  // kept live indexes, bucketed by row hash
  for (size_t i = 0; i < n; ++i) {
    const size_t h = HashBatchRow(*this, all_cols, i);
    bool dup = false;
    seen.ForEachCandidate(h, [&](uint32_t kept_row) {
      dup = RowsEqual(*this, all_cols, kept_row, i);
      return dup;
    });
    if (dup) continue;
    seen.Insert(h, static_cast<uint32_t>(i));
    keep.push_back(static_cast<uint32_t>(i));
  }
  if (dropped != nullptr) *dropped = n - keep.size();
  if (keep.size() == n) return *this;
  return Filtered(std::move(keep));
}

Table ColumnBatch::ToTable(const TermPool& pool) const {
  const size_t n = num_rows();
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    row.reserve(attrs_.size());
    for (size_t c = 0; c < attrs_.size(); ++c) {
      row.push_back(pool.Decode(At(c, i)));
    }
    rows.push_back(std::move(row));
  }
  return Table::FromDistinctRows(attrs_, std::move(rows));
}

}  // namespace lcp
