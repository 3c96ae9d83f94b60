// strings.hpp — small string helpers shared across the library.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dpbyz::strings {

/// Split `s` on `delim`, keeping empty fields.  "a,,b" -> {"a","","b"}.
std::vector<std::string> split(const std::string& s, char delim);

/// Strip ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Lower-case ASCII copy.
std::string to_lower(std::string s);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Format a double with `precision` significant-ish digits, trimming
/// trailing zeros ("1.50000" -> "1.5", "2.000" -> "2").
std::string format_double(double v, int precision = 6);

/// A decimal count: digits only (no sign, no space, nothing after
/// them) and no overflow.  nullopt for anything else.
std::optional<size_t> parse_count(std::string_view digits);

/// Join elements with a separator: join({"a","b"}, ", ") -> "a, b".
std::string join(const std::vector<std::string>& parts, const std::string& sep);

}  // namespace dpbyz::strings
