// Tiny JSON helpers shared by the obs exporters. Not a JSON library —
// just enough to emit valid documents from trusted, mostly-identifier
// inputs.

#ifndef GMARK_OBS_JSON_UTIL_H_
#define GMARK_OBS_JSON_UTIL_H_

#include <string>

namespace gmark {
namespace obs_internal {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[c >> 4];
          out += "0123456789abcdef"[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace obs_internal
}  // namespace gmark

#endif  // GMARK_OBS_JSON_UTIL_H_
