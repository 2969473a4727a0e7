// Small string helpers shared across modules (no locale dependence).

#ifndef GMARK_UTIL_STRING_UTIL_H_
#define GMARK_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/result.h"

namespace gmark {

namespace internal {
template <typename T>
void AppendPiece(std::string* out, const T& v) {
  if constexpr (std::is_same_v<T, char>) {
    out->push_back(v);
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(!std::is_same_v<T, bool>, "spell booleans out");
    char buf[20];  // Fits INT64_MIN and UINT64_MAX.
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    out->append(buf, static_cast<size_t>(r.ptr - buf));
  } else {
    out->append(std::string_view(v));
  }
}
}  // namespace internal

/// \brief Append each argument to `out`: strings and characters as they
/// are, integers in decimal via std::to_chars. Unlike `<<` on a stream,
/// no locale or format flag can change the bytes.
template <typename... Args>
void StrAppend(std::string* out, const Args&... args) {
  (internal::AppendPiece(out, args), ...);
}

/// \brief StrAppend into a fresh string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  StrAppend(&out, args...);
  return out;
}

/// \brief Join the items with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& items,
                 std::string_view sep);

/// \brief Split on a single character; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// \brief Strip ASCII whitespace from both ends.
std::string Trim(std::string_view s);

/// \brief True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief Parse a base-10 signed integer; rejects trailing garbage.
Result<int64_t> ParseInt(std::string_view s);

/// \brief Parse a floating-point number; rejects trailing garbage.
Result<double> ParseDouble(std::string_view s);

/// \brief Render a double with up to `precision` significant digits,
/// trimming trailing zeros ("1.5", "2", "0.001").
std::string FormatDouble(double v, int precision = 6);

/// \brief Render a double with exactly `digits` decimals ("2.500"):
/// printf's %.Nf, minus the locale.
std::string FormatFixed(double v, int digits);

}  // namespace gmark

#endif  // GMARK_UTIL_STRING_UTIL_H_
