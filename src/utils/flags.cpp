#include "utils/flags.hpp"

#include <algorithm>
#include <stdexcept>

#include "utils/strings.hpp"

namespace dpbyz::flags {

Parser::Parser(int argc, const char* const* argv, std::vector<std::string> spec) {
  auto known = [&spec](const std::string& name) {
    return std::find(spec.begin(), spec.end(), name) != spec.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!strings::starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string name, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // `--flag value` form: consume the next token unless it is a flag.
      if (i + 1 < argc && !strings::starts_with(argv[i + 1], "--")) {
        value = argv[++i];
      } else {
        value = "true";  // bare boolean flag
      }
    }
    if (!known(name))
      throw std::invalid_argument("unknown flag --" + name);
    values_[name] = value;
  }
}

bool Parser::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Parser::get_string(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

[[noreturn]] void malformed(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("flag --" + name + " expects " + expected + ", got '" + value +
                              "'");
}

}  // namespace

int64_t Parser::get_int(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  size_t pos = 0;
  try {
    const int64_t value = std::stoll(it->second, &pos);
    if (pos == it->second.size()) return value;
  } catch (const std::exception&) {
  }
  malformed(name, it->second, "an integer");
}

double Parser::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  size_t pos = 0;
  try {
    const double value = std::stod(it->second, &pos);
    if (pos == it->second.size()) return value;
  } catch (const std::exception&) {
  }
  malformed(name, it->second, "a number");
}

size_t Parser::get_count(const std::string& name, size_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::optional<size_t> count = strings::parse_count(it->second);
  if (!count) malformed(name, it->second, "a decimal count");
  return *count;
}

bool Parser::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto v = strings::to_lower(it->second);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  malformed(name, it->second, "a boolean");
}

}  // namespace dpbyz::flags
