#include "lcp/ra/table.h"

#include <algorithm>
#include <sstream>

#include "lcp/base/check.h"

namespace lcp {

void Table::BuildAttrIndex() {
  attr_index_.reserve(attrs_.size());
  for (size_t i = 0; i < attrs_.size(); ++i) {
    attr_index_.emplace(attrs_[i], static_cast<int>(i));
  }
}

Table Table::FromDistinctRows(std::vector<std::string> attrs,
                              std::vector<Tuple> rows) {
  Table table(std::move(attrs));
  for (const Tuple& row : rows) {
    LCP_CHECK_EQ(row.size(), table.attrs_.size()) << "row width mismatch";
  }
  table.rows_ = std::move(rows);
  return table;
}

void Table::Reserve(size_t n) {
  rows_.reserve(n);
  dedup_.reserve(n);
}

bool Table::Insert(Tuple row) {
  LCP_CHECK_EQ(row.size(), attrs_.size()) << "row width mismatch";
  if (indexed_ < rows_.size()) {
    dedup_.reserve(rows_.size() + 1);
    for (; indexed_ < rows_.size(); ++indexed_) {
      dedup_.emplace(TupleHash()(rows_[indexed_]),
                     static_cast<uint32_t>(indexed_));
    }
  }
  const size_t h = TupleHash()(row);
  auto [begin, end] = dedup_.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    if (rows_[it->second] == row) return false;
  }
  dedup_.emplace(h, static_cast<uint32_t>(rows_.size()));
  rows_.push_back(std::move(row));
  ++indexed_;
  return true;
}

bool Table::ContainsRow(const Tuple& row) const {
  const size_t h = TupleHash()(row);
  auto [begin, end] = dedup_.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    if (rows_[it->second] == row) return true;
  }
  return std::find(rows_.begin() + indexed_, rows_.end(), row) != rows_.end();
}

std::string Table::ToString() const {
  std::vector<size_t> widths(attrs_.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < attrs_.size(); ++i) widths[i] = attrs_[i].size();
  for (const Tuple& row : rows_) {
    std::vector<std::string> line;
    for (size_t i = 0; i < row.size(); ++i) {
      line.push_back(row[i].ToString());
      widths[i] = std::max(widths[i], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    os << (i ? " | " : "") << attrs_[i]
       << std::string(widths[i] - attrs_[i].size(), ' ');
  }
  os << "\n";
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size(); ++i) {
      os << (i ? " | " : "") << line[i]
         << std::string(widths[i] - line[i].size(), ' ');
    }
    os << "\n";
  }
  if (attrs_.empty()) {
    os << (rows_.empty() ? "(empty nullary table)\n"
                         : "(nullary table: one row)\n");
  }
  return os.str();
}

}  // namespace lcp
