#ifndef LCP_BASE_STRINGS_H_
#define LCP_BASE_STRINGS_H_

#include <charconv>
#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace lcp {

namespace internal_strings {

template <typename T>
inline constexpr bool kIsNarrowChar =
    std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
    std::is_same_v<T, unsigned char>;

/// Integers printed as decimal digits. bool and the character types are
/// excluded: an ostream prints those as "1"/"0" and as characters.
template <typename T>
inline constexpr bool kIsDecimalInteger =
    std::is_integral_v<T> && !std::is_same_v<T, bool> && !kIsNarrowChar<T> &&
    !std::is_same_v<T, wchar_t> && !std::is_same_v<T, char8_t> &&
    !std::is_same_v<T, char16_t> && !std::is_same_v<T, char32_t>;

/// The text of one StrCat / StrJoin argument, exactly as `os << value`
/// prints it. Strings are viewed in place, characters and integers are
/// formatted into a small inline buffer, and only the remaining types
/// (floating point, bool, enums, types with their own operator<<) pay for a
/// stream.
class Piece {
 public:
  template <typename T>
  Piece(const T& value) {  // Implicit: StrCat converts its arguments.
    if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      text_ = std::string_view(value);
    } else if constexpr (kIsNarrowChar<T>) {
      buf_[0] = static_cast<char>(value);
      text_ = std::string_view(buf_, 1);
    } else if constexpr (kIsDecimalInteger<T>) {
      const std::to_chars_result r =
          std::to_chars(buf_, buf_ + sizeof buf_, value);
      text_ = std::string_view(buf_, static_cast<size_t>(r.ptr - buf_));
    } else {
      std::ostringstream os;
      os << value;
      owned_ = std::move(os).str();
      text_ = owned_;
    }
  }
  Piece(const Piece&) = delete;
  Piece& operator=(const Piece&) = delete;

  std::string_view text() const { return text_; }

 private:
  char buf_[24] = {};  ///< Fits any 64-bit integer with its sign.
  std::string owned_;
  std::string_view text_;
};

/// Concatenates `count` pieces with one allocation. Kept out of line so
/// every call site shares one copy of the loop.
std::string Concat(const Piece* pieces, size_t count);

}  // namespace internal_strings

/// Concatenates the streamable arguments into one string; each argument's
/// text is what `std::ostream << arg` would print.
template <typename... Args>
std::string StrCat(const Args&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return std::string();
  } else {
    const internal_strings::Piece pieces[] = {args...};
    return internal_strings::Concat(pieces, sizeof...(Args));
  }
}

/// Appends the streamable arguments to `*out`, each rendered as by StrCat.
template <typename... Args>
void StrAppend(std::string* out, const Args&... args) {
  static_assert(sizeof...(Args) > 0, "StrAppend needs something to append");
  const internal_strings::Piece pieces[] = {args...};
  for (const internal_strings::Piece& piece : pieces) out->append(piece.text());
}

/// Joins the elements of `parts` with `sep`, each rendered as by StrCat.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) out.append(sep);
    first = false;
    out.append(internal_strings::Piece(part).text());
  }
  return out;
}

/// Splits `text` on `delimiter`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char delimiter);

}  // namespace lcp

#endif  // LCP_BASE_STRINGS_H_
