// Minimal strict JSON for the serve wire protocol (src/serve/).
//
// The daemon's request boundary parses untrusted bytes, so this parser is
// deliberately strict and bounded: the whole input must be exactly one JSON
// value (trailing bytes are an error, matching the whole-token rule of
// support/parse.hpp), nesting is depth-capped, object keys must be unique,
// and integers must fit int64 exactly — a numeric literal with a fraction
// or exponent parses as kDouble so the schema layer (serve/protocol.cpp)
// can refuse it for integer fields instead of silently truncating.
//
// This is a reader only; response lines are built with json_quote plus
// core/runner's pinned row renderer (row_to_json), never by re-serializing
// a JsonValue.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace padlock::serve {

/// Thrown by parse_json on any syntax or strictness violation; the message
/// carries the byte offset of the offending input position.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

struct JsonValue {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  long long integer = 0;   // kInt
  double number = 0.0;     // kDouble (also mirrors kInt for convenience)
  std::string string;      // kString
  std::vector<JsonValue> items;                             // kArray
  std::vector<std::pair<std::string, JsonValue>> members;   // kObject, in
                                                            // input order

  [[nodiscard]] bool is(Kind k) const { return kind == k; }
  /// Object member lookup; nullptr when absent (or when this is not an
  /// object). Keys are unique by parser contract.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Human-readable kind name for schema error messages ("integer",
/// "string", ...).
[[nodiscard]] std::string_view json_kind_name(JsonValue::Kind kind);

/// Parses exactly one JSON value spanning the whole input (surrounding
/// whitespace allowed). Throws JsonError on malformed syntax, duplicate
/// object keys, nesting deeper than 32 levels, int64 overflow of an
/// integer literal, invalid escapes, or unescaped control characters.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// The response-line counterpart of the strict reader above (one copy,
/// support/json.hpp, shared with the sweep row renderer).
using padlock::json_quote;

}  // namespace padlock::serve
