#include "lcp/base/strings.h"

namespace lcp {

namespace internal_strings {

std::string Concat(const Piece* pieces, size_t count) {
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) total += pieces[i].text().size();
  std::string out;
  out.reserve(total);
  for (size_t i = 0; i < count; ++i) out.append(pieces[i].text());
  return out;
}

}  // namespace internal_strings

std::vector<std::string> StrSplit(std::string_view text, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      break;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

}  // namespace lcp
