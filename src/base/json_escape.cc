#include "base/json_escape.h"

#include <cmath>
#include <cstdio>

#include "base/check.h"

namespace eqimpact {
namespace base {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char raw : text) {
    const unsigned char ch = static_cast<unsigned char>(raw);
    switch (ch) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (ch < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", ch);
          out.append(buffer);
        } else {
          out.push_back(raw);
        }
    }
  }
  return out;
}

void AppendJsonNumber(std::string* out, double value,
                      int significant_digits) {
  EQIMPACT_CHECK(significant_digits >= 1 && significant_digits <= 17);
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buffer[32];
  const int length = std::snprintf(buffer, sizeof(buffer), "%.*g",
                                   significant_digits, value);
  out->append(buffer, static_cast<size_t>(length));
}

}  // namespace base
}  // namespace eqimpact
