#pragma once

/// \file env.hpp
/// Checked parsing of the integer and boolean `COASTAL_*` environment
/// knobs.

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "util/check.hpp"

namespace coastal::util {

/// The integer value of environment variable `name`, or nullopt when it is
/// unset or empty.  The whole string must be a base-10 integer in
/// [lo, hi]; anything else (garbage, trailing text, out of range) throws
/// CheckError naming the variable.
inline std::optional<int64_t> env_int(const char* name, int64_t lo,
                                      int64_t hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long x = std::strtoll(v, &end, 10);
  COASTAL_CHECK_MSG(errno == 0 && end != v && *end == '\0' && x >= lo &&
                        x <= hi,
                    name << "=\"" << v << "\" is not an integer in [" << lo
                         << ", " << hi << "]");
  return static_cast<int64_t>(x);
}

/// The boolean value of environment variable `name`, or nullopt when it is
/// unset or empty.  The value must be exactly `0` or `1`; anything else
/// (`false`, `on`, `01`) throws CheckError naming the variable.
inline std::optional<bool> env_flag(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  const std::string_view s(v);
  COASTAL_CHECK_MSG(s == "0" || s == "1",
                    name << "=\"" << v << "\" is not 0 or 1");
  return s == "1";
}

}  // namespace coastal::util
