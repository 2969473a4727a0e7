// Fixture: locale-dependent text formatting in src code is banned —
// each of these prints "1,234.500" under a digit-grouping locale.
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <string>
std::string Seconds(double s) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << s;
  return os.str();
}
std::string Count(unsigned long n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lu", n);
  std::sprintf(buf, "%lu", n);
  std::stringstream ss;
  ss << buf;
  return ss.str();
}
