#ifndef EQIMPACT_BASE_JSON_ESCAPE_H_
#define EQIMPACT_BASE_JSON_ESCAPE_H_

#include <string>

namespace eqimpact {
namespace base {

/// Escapes `text` as the *contents* of a JSON string literal (no
/// surrounding quotes): ", \, and control characters per RFC 8259. The
/// library's one JSON string escaper: serve::JsonValue::Dump, the
/// run_experiment documents (serve/render_json.cc) and the --certify
/// document (sim/certify.cc) call it.
std::string JsonEscape(const std::string& text);

/// Appends `value` to `out` as a JSON number: printf's %.*g with
/// `significant_digits` (1 to 17) digits, or null when the value is not
/// finite (NaN and the infinities are not JSON). The library's one
/// number renderer: the run_experiment documents (serve/render_json.cc,
/// 9 digits) and the --certify document (sim/certify.cc, 17) write every
/// double through it.
void AppendJsonNumber(std::string* out, double value,
                      int significant_digits);

}  // namespace base
}  // namespace eqimpact

#endif  // EQIMPACT_BASE_JSON_ESCAPE_H_
