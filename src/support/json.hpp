// The one JSON string writer: sweep rows (core/runner.cpp) and the serve
// daemon's response lines (src/serve/) quote every string through it.
#pragma once

#include <string>
#include <string_view>

namespace padlock {

/// `s` as a quoted JSON string literal (quotes included), escaping quotes,
/// backslashes, and every control character (an exception message can
/// contain any of them).
[[nodiscard]] std::string json_quote(std::string_view s);

}  // namespace padlock
