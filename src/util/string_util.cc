#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace gmark {

std::string Join(const std::vector<std::string>& items,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(items[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<int64_t> ParseInt(std::string_view s) {
  std::string t = Trim(s);
  if (t.empty()) return Status::InvalidArgument("empty integer literal");
  errno = 0;
  char* end = nullptr;
  int64_t v = std::strtoll(t.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: " + t);
  }
  if (end == t.c_str() || *end != '\0') {
    return Status::InvalidArgument("not an integer: " + t);
  }
  return v;
}

Result<double> ParseDouble(std::string_view s) {
  std::string t = Trim(s);
  if (t.empty()) return Status::InvalidArgument("empty float literal");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(t.c_str(), &end);
  if (end == t.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: " + t);
  }
  return v;
}

std::string FormatDouble(double v, int precision) {
  // The general format is printf's %g, which `<<` also uses, minus the
  // stream's locale. %g never prints more than `precision` significant
  // digits plus sign, point, four leading zeros and an exponent.
  std::string out(static_cast<size_t>(std::max(precision, 1)) + 16, '\0');
  const std::to_chars_result r =
      std::to_chars(out.data(), out.data() + out.size(), v,
                    std::chars_format::general, precision);
  out.resize(static_cast<size_t>(r.ptr - out.data()));
  return out;
}

std::string FormatFixed(double v, int digits) {
  // DBL_MAX has 309 integer digits; add sign, point and the decimals.
  std::string out(static_cast<size_t>(std::max(digits, 0)) + 312, '\0');
  const std::to_chars_result r =
      std::to_chars(out.data(), out.data() + out.size(), v,
                    std::chars_format::fixed, digits);
  out.resize(static_cast<size_t>(r.ptr - out.data()));
  return out;
}

}  // namespace gmark
