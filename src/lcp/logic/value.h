#ifndef LCP_LOGIC_VALUE_H_
#define LCP_LOGIC_VALUE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace lcp {

/// A database value: either a 64-bit integer or a string. Values are used
/// both as schema constants (the fixed test values a querier may use, §2 of
/// the paper) and as the data stored in instances.
class Value {
 public:
  Value() : rep_(int64_t{0}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}

  static Value Int(int64_t v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }

  bool is_int() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }

  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  /// Renders the value for debugging: integers bare, strings quoted.
  std::string ToString() const;

  /// Appends an unambiguous encoding of the value to `key`: "i<int>" or
  /// "s<length>:<bytes>". The length prefix keeps a key well-formed whatever
  /// bytes a string holds, so keys of different values never collide.
  void AppendKey(std::string& key) const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.rep_ == b.rep_;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return !(a == b);
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.rep_ < b.rep_;
  }

  size_t Hash() const;

 private:
  std::variant<int64_t, std::string> rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace lcp

#endif  // LCP_LOGIC_VALUE_H_
