// RFC 8259 string escaping, the one copy every JSON emitter uses (reports,
// SARIF, flow graphs, metrics exposition). Header-only, so saad_obs, which
// does not link saad_common, can use it too.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace saad {

/// Escapes quotes, backslashes and control characters for a JSON string.
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace saad
