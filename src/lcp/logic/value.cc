#include "lcp/logic/value.h"

#include <sstream>

namespace lcp {

std::string Value::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

void Value::AppendKey(std::string& key) const {
  if (is_int()) {
    key += 'i';
    key += std::to_string(AsInt());
  } else {
    key += 's';
    key += std::to_string(AsString().size());
    key += ':';
    key += AsString();
  }
}

size_t Value::Hash() const {
  if (is_int()) {
    return std::hash<int64_t>()(AsInt()) * 0x9e3779b97f4a7c15ULL;
  }
  return std::hash<std::string>()(AsString());
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  if (value.is_int()) {
    os << value.AsInt();
  } else {
    os << '"' << value.AsString() << '"';
  }
  return os;
}

}  // namespace lcp
