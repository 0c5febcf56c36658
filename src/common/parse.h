// Strict parsing of run parameters.
//
// Every numeric run parameter — a command-line flag of the tools, a
// READDUO_* env knob, a READDUO_FAULTS clause value — goes through
// parse_uint / parse_real, so a typo like --instructions=6e6 fails with a
// diagnostic naming the parameter and the value instead of silently
// running a different configuration (and mislabelling its numbers).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "common/check.h"

namespace rd {

/// Parse `value` as a base-10 unsigned integer that fits in T. The whole
/// string must be digits — no sign, whitespace, exponent, or trailing
/// garbage. Throws CheckFailure naming `what` otherwise.
template <class T = std::uint64_t>
T parse_uint(const std::string& what, const std::string& value) {
  static_assert(std::is_unsigned_v<T>);
  RD_CHECK_MSG(!value.empty(), what << ": empty value");
  for (const char c : value) {
    RD_CHECK_MSG(c >= '0' && c <= '9',
                 what << ": '" << value
                      << "' is not a plain base-10 integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  RD_CHECK_MSG(errno == 0 && end == value.c_str() + value.size() &&
                   v <= std::numeric_limits<T>::max(),
               what << ": '" << value << "' is out of range (max "
                    << +std::numeric_limits<T>::max() << ")");
  return static_cast<T>(v);
}

/// Parse all of `value` as a finite real number (strtod syntax). Throws
/// CheckFailure naming `what` on trailing garbage, overflow, inf or nan.
inline double parse_real(const std::string& what, const std::string& value) {
  RD_CHECK_MSG(!value.empty(), what << ": empty value");
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(value.c_str(), &end);
  RD_CHECK_MSG(errno == 0 && end == value.c_str() + value.size(),
               what << ": '" << value << "' is not a number");
  RD_CHECK_MSG(x == x && x <= std::numeric_limits<double>::max() &&
                   x >= -std::numeric_limits<double>::max(),
               what << ": '" << value << "' is not finite");
  return x;
}

/// The flag splitter: true, with `out` set to the value, when `arg` is
/// `<name>=<value>`.
inline bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    out = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace rd
