#include "serve/json.hpp"

#include <cctype>
#include <charconv>

namespace padlock::serve {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string_view json_kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return "boolean";
    case JsonValue::Kind::kInt:
      return "integer";
    case JsonValue::Kind::kDouble:
      return "number";
    case JsonValue::Kind::kString:
      return "string";
    case JsonValue::Kind::kArray:
      return "array";
    case JsonValue::Kind::kObject:
      return "object";
  }
  return "value";
}

namespace {

constexpr int kMaxDepth = 32;

// Recursive-descent cursor over the input. Every failure throws JsonError
// with the byte offset, so a daemon log line pinpoints the poison byte.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after the JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError(what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_keyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 32 levels");
    skip_ws();
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      case 't':
        if (!consume_keyword("true")) fail("invalid literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_keyword("false")) fail("invalid literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_keyword("null")) fail("invalid literal");
        v.kind = JsonValue::Kind::kNull;
        return v;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parse_string();
      if (v.find(key) != nullptr) fail("duplicate object key '" + key + "'");
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value(depth + 1));
      skip_ws();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char raw = text_[pos_];
      const auto c = static_cast<unsigned char>(raw);
      if (c < 0x20) fail("unescaped control character in string");
      ++pos_;
      if (raw == '"') return out;
      if (raw != '\\') {
        out += raw;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape digit");
            }
          }
          // UTF-8 encode the basic-plane code point; surrogate pairs are
          // refused (no request field needs them, and half a pair is the
          // classic smuggling vector).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits) fail("invalid numeric literal");
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      const std::size_t frac = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac) fail("missing fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const std::size_t exp = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp) fail("missing exponent digits");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    JsonValue v;
    if (integral) {
      v.kind = JsonValue::Kind::kInt;
      const auto [ptr, ec] = std::from_chars(
          token.data(), token.data() + token.size(), v.integer, 10);
      if (ec != std::errc() || ptr != token.data() + token.size()) {
        fail("integer literal out of int64 range");
      }
      v.number = static_cast<double>(v.integer);
      return v;
    }
    v.kind = JsonValue::Kind::kDouble;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v.number);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      fail("invalid numeric literal");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

}  // namespace padlock::serve
