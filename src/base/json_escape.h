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

}  // namespace base
}  // namespace eqimpact

#endif  // EQIMPACT_BASE_JSON_ESCAPE_H_
