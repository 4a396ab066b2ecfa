#include "serve/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/check.h"
#include "base/json_escape.h"

namespace eqimpact {
namespace serve {
namespace {

/// Hostile inputs must not recurse the parser off the stack; 64 levels
/// is far beyond any legitimate experiment spec.
constexpr size_t kMaxDepth = 64;

struct Parser {
  const std::string& text;
  size_t at = 0;
  std::string error;

  bool Fail(const std::string& message) {
    char prefix[48];
    std::snprintf(prefix, sizeof(prefix), "at byte %zu: ", at);
    error = prefix + message;
    return false;
  }

  void SkipSpace() {
    while (at < text.size() &&
           (text[at] == ' ' || text[at] == '\t' || text[at] == '\n' ||
            text[at] == '\r')) {
      ++at;
    }
  }

  bool Consume(char expected) {
    if (at < text.size() && text[at] == expected) {
      ++at;
      return true;
    }
    return Fail(std::string("expected '") + expected + "'");
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t start = at;
    for (const char* p = literal; *p != '\0'; ++p, ++at) {
      if (at >= text.size() || text[at] != *p) {
        at = start;
        return Fail(std::string("expected '") + literal + "'");
      }
    }
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (true) {
      if (at >= text.size()) return Fail("unterminated string");
      const unsigned char ch = static_cast<unsigned char>(text[at]);
      if (ch == '"') {
        ++at;
        return true;
      }
      if (ch < 0x20) return Fail("unescaped control character in string");
      if (ch != '\\') {
        out->push_back(static_cast<char>(ch));
        ++at;
        continue;
      }
      ++at;  // Past the backslash.
      if (at >= text.size()) return Fail("unterminated escape");
      const char esc = text[at++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (at + 4 > text.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text[at++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') {
              code |= static_cast<unsigned>(hex - '0');
            } else if (hex >= 'a' && hex <= 'f') {
              code |= static_cast<unsigned>(hex - 'a' + 10);
            } else if (hex >= 'A' && hex <= 'F') {
              code |= static_cast<unsigned>(hex - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point; surrogate pairs are beyond
          // what experiment specs need and are rejected explicitly.
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape character");
      }
    }
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = at;
    if (at < text.size() && text[at] == '-') ++at;
    if (at >= text.size() || !std::isdigit(static_cast<unsigned char>(text[at]))) {
      at = start;
      return Fail("malformed number");
    }
    if (text[at] == '0') {
      // RFC 8259: no leading zeros ("01" is two tokens, i.e. invalid).
      ++at;
    } else {
      while (at < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[at]))) {
        ++at;
      }
    }
    if (at < text.size() && text[at] == '.') {
      ++at;
      if (at >= text.size() ||
          !std::isdigit(static_cast<unsigned char>(text[at]))) {
        return Fail("malformed number (no digits after '.')");
      }
      while (at < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[at]))) {
        ++at;
      }
    }
    if (at < text.size() && (text[at] == 'e' || text[at] == 'E')) {
      ++at;
      if (at < text.size() && (text[at] == '+' || text[at] == '-')) ++at;
      if (at >= text.size() ||
          !std::isdigit(static_cast<unsigned char>(text[at]))) {
        return Fail("malformed number (empty exponent)");
      }
      while (at < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[at]))) {
        ++at;
      }
    }
    const std::string token = text.substr(start, at - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      return Fail("number out of range");
    }
    *out = JsonValue::Number(value);
    return true;
  }

  bool ParseValue(JsonValue* out, size_t depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (at >= text.size()) return Fail("unexpected end of input");
    const char ch = text[at];
    if (ch == 'n') {
      if (!ConsumeLiteral("null")) return false;
      *out = JsonValue::Null();
      return true;
    }
    if (ch == 't') {
      if (!ConsumeLiteral("true")) return false;
      *out = JsonValue::Bool(true);
      return true;
    }
    if (ch == 'f') {
      if (!ConsumeLiteral("false")) return false;
      *out = JsonValue::Bool(false);
      return true;
    }
    if (ch == '"') {
      std::string value;
      if (!ParseString(&value)) return false;
      *out = JsonValue::String(std::move(value));
      return true;
    }
    if (ch == '[') {
      ++at;
      *out = JsonValue::Array();
      SkipSpace();
      if (at < text.size() && text[at] == ']') {
        ++at;
        return true;
      }
      while (true) {
        JsonValue item;
        if (!ParseValue(&item, depth + 1)) return false;
        out->Append(std::move(item));
        SkipSpace();
        if (at < text.size() && text[at] == ',') {
          ++at;
          continue;
        }
        return Consume(']');
      }
    }
    if (ch == '{') {
      ++at;
      *out = JsonValue::Object();
      SkipSpace();
      if (at < text.size() && text[at] == '}') {
        ++at;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipSpace();
        if (!Consume(':')) return false;
        JsonValue value;
        if (!ParseValue(&value, depth + 1)) return false;
        out->Set(key, std::move(value));
        SkipSpace();
        if (at < text.size() && text[at] == ',') {
          ++at;
          continue;
        }
        return Consume('}');
      }
    }
    return ParseNumber(out);
  }
};

void DumpValue(const JsonValue& value, std::string* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out->append("null");
      return;
    case JsonValue::Kind::kBool:
      out->append(value.as_bool() ? "true" : "false");
      return;
    case JsonValue::Kind::kNumber: {
      char buffer[40];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value.as_number());
      out->append(buffer);
      return;
    }
    case JsonValue::Kind::kString:
      out->push_back('"');
      out->append(base::JsonEscape(value.as_string()));
      out->push_back('"');
      return;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      const std::vector<JsonValue>& items = value.items();
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out->push_back(',');
        DumpValue(items[i], out);
      }
      out->push_back(']');
      return;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      const auto& members = value.members();
      for (size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out->push_back(',');
        out->push_back('"');
        out->append(base::JsonEscape(members[i].first));
        out->append("\":");
        DumpValue(members[i].second, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  EQIMPACT_CHECK(is_bool());
  return bool_;
}

double JsonValue::as_number() const {
  EQIMPACT_CHECK(is_number());
  return number_;
}

const std::string& JsonValue::as_string() const {
  EQIMPACT_CHECK(is_string());
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  EQIMPACT_CHECK(is_array());
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  EQIMPACT_CHECK(is_object());
  return members_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (size_t i = members_.size(); i-- > 0;) {
    if (members_[i].first == key) return &members_[i].second;
  }
  return nullptr;
}

void JsonValue::Append(JsonValue value) {
  EQIMPACT_CHECK(is_array());
  items_.push_back(std::move(value));
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  EQIMPACT_CHECK(is_object());
  members_.emplace_back(key, std::move(value));
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpValue(*this, &out);
  return out;
}

bool ParseJson(const std::string& text, JsonValue* value,
               std::string* error) {
  EQIMPACT_CHECK(value != nullptr);
  EQIMPACT_CHECK(error != nullptr);
  Parser parser{text, 0, {}};
  if (!parser.ParseValue(value, 0)) {
    *error = parser.error;
    return false;
  }
  parser.SkipSpace();
  if (parser.at != text.size()) {
    parser.Fail("trailing characters after the JSON value");
    *error = parser.error;
    return false;
  }
  return true;
}

}  // namespace serve
}  // namespace eqimpact
