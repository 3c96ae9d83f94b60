// errors.hpp — lightweight precondition checking for the dpbyz library.
//
// The library is used both as a research harness (where a violated
// precondition is a programming error and should abort loudly) and from
// long-running benchmark drivers (where we want a useful message).  We
// therefore throw std::invalid_argument / std::runtime_error /
// std::logic_error with formatted context instead of asserting, and never
// continue past a violated check.
#pragma once

#include <stdexcept>
#include <string>

namespace dpbyz {

/// Throw std::invalid_argument with `msg` when `cond` is false.
/// Use for violations of a public API's documented preconditions.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Literal-message overload: hot-path checks (vector ops, batch row
/// accesses) call require() millions of times per step, and the
/// std::string overload would construct — i.e. heap-allocate — its
/// message on every *successful* check.  This overload defers any
/// allocation to the throwing branch.
inline void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Throw std::runtime_error with `msg` when `cond` is false.
/// Use for persisted state that decodes but carries a word no writer
/// produces (a corrupt checkpoint), as codec::Reader does for a short
/// read; a checkpoint that is intact but written by another
/// configuration is a require() violation.
inline void require_intact(bool cond, const char* msg) {
  if (!cond) throw std::runtime_error(msg);
}

/// Throw std::logic_error with `msg` when `cond` is false.
/// Use for internal invariants that indicate a bug in dpbyz itself.
inline void check_internal(bool cond, const std::string& msg) {
  if (!cond) throw std::logic_error("dpbyz internal error: " + msg);
}

/// Literal-message overload; see require(bool, const char*).
inline void check_internal(bool cond, const char* msg) {
  if (!cond) throw std::logic_error(std::string("dpbyz internal error: ") + msg);
}

}  // namespace dpbyz
