#include "utils/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

namespace dpbyz::strings {

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(s);
  while (std::getline(in, field, delim)) out.push_back(field);
  // std::getline drops a trailing empty field ("a," -> {"a"}); restore it so
  // CSV rows with empty last cells round-trip.
  if (!s.empty() && s.back() == delim) out.emplace_back();
  return out;
}

std::string trim(const std::string& s) {
  auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  auto b = std::find_if_not(s.begin(), s.end(), is_space);
  auto e = std::find_if_not(s.rbegin(), s.rend(), is_space).base();
  return (b < e) ? std::string(b, e) : std::string();
}

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string format_double(double v, int precision) {
  std::ostringstream out;
  out.precision(precision);
  out << v;
  return out.str();
}

std::optional<size_t> parse_count(std::string_view digits) {
  size_t out = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace dpbyz::strings
