// Fixture: locale-free formatting the lint must not flag — to_chars,
// printf to stdout (a report, not a writer), and words that embed the
// banned tokens ("fixed_count", "precision"), or mention them only in
// comments and strings: std::ostringstream, snprintf(buf, ...).
#include <charconv>
#include <cstdio>
#include <string>
std::string Count(long fixed_count, int precision) {
  char buf[24];
  auto r = std::to_chars(buf, buf + sizeof(buf), fixed_count + precision);
  std::printf("%s\n", "no std::fixed here");
  return std::string(buf, r.ptr);
}
