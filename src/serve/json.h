#ifndef EQIMPACT_SERVE_JSON_H_
#define EQIMPACT_SERVE_JSON_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace eqimpact {
namespace serve {

/// Minimal dependency-free JSON value + recursive-descent parser for the
/// experiment service's request protocol (one request object per line).
/// Objects preserve member insertion order — the service echoes sweep
/// axes in the order the client wrote them, and grid order is part of
/// the sweep contract. Duplicate keys keep the *last* occurrence (lookup
/// scans back to front), matching common JSON library behaviour.
///
/// The parser accepts strict RFC 8259 JSON text (no comments, no
/// trailing commas), rejects everything else with a position-carrying
/// error message, and bounds nesting depth so a hostile request cannot
/// overflow the stack.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  static JsonValue Number(double value);
  static JsonValue String(std::string value);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; CHECK-fail on kind mismatch (callers test first).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object lookup: the member value, or null when absent (or when this
  /// value is not an object). Last duplicate wins.
  const JsonValue* Find(const std::string& key) const;

  /// Mutators for building values programmatically (client requests).
  void Append(JsonValue value);
  void Set(const std::string& key, JsonValue value);

  /// Serializes this value as compact single-line JSON (numbers via
  /// %.17g round-trip formatting, strings escaped per RFC 8259).
  std::string Dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed). On success returns true and fills `value`; on
/// failure returns false and fills `error` with a byte-offset-carrying
/// diagnostic.
bool ParseJson(const std::string& text, JsonValue* value,
               std::string* error);

}  // namespace serve
}  // namespace eqimpact

#endif  // EQIMPACT_SERVE_JSON_H_
