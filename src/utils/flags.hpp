// flags.hpp — tiny command-line flag parser for the bench/example binaries.
//
// Supports `--name=value`, `--name value` and boolean `--name` forms.
// Unknown flags are an error (benches must not silently ignore typos in
// sweep parameters — that would produce a wrong-but-plausible table).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpbyz::flags {

/// Parsed command line.  Construct once from argv, then query typed getters.
class Parser {
 public:
  /// `spec` lists the accepted flag names (without leading dashes).
  /// Throws std::invalid_argument on unknown flags or malformed input.
  Parser(int argc, const char* const* argv, std::vector<std::string> spec);

  bool has(const std::string& name) const;

  /// Typed getters returning `fallback` when the flag is absent.  A
  /// present value must parse whole: "12abc" or "0.2x" throws.
  std::string get_string(const std::string& name, const std::string& fallback) const;
  int64_t get_int(const std::string& name, int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// A count, seed or size: decimal digits only (strings::parse_count),
  /// so "-1" throws instead of wrapping to 2^64 - 1.
  size_t get_count(const std::string& name, size_t fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace dpbyz::flags
