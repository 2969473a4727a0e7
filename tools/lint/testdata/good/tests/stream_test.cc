// Fixture: tests may format through streams (stream-format is src-only).
#include <sstream>
#include <string>
std::string Render(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}
