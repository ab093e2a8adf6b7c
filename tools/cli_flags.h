// Strict --key=value flag parsing shared by the command-line tools. A
// numeric flag takes a whole, well-formed number in range or is rejected
// with a message naming the flag; nothing is read leniently (no "10%" read
// as 10, no "abc" read as 0).

#ifndef REDOOP_TOOLS_CLI_FLAGS_H_
#define REDOOP_TOOLS_CLI_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <system_error>

#include "common/string_utils.h"

namespace redoop {

/// True when `arg` is --`name`=VALUE; stores VALUE.
inline bool ParseFlag(const std::string& arg, const std::string& name,
                      std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Parses --`flag`'s value as a whole decimal integer >= `min` that fits
/// `Int`. Anything else names the flag on stderr and returns false.
template <typename Int>
bool ParseIntFlag(const char* flag, const std::string& text, int64_t min,
                  Int* out) {
  int64_t value = 0;
  if (!ParseInt64(text, &value) || value < min ||
      static_cast<uint64_t>(value) >
          static_cast<uint64_t>(std::numeric_limits<Int>::max())) {
    std::fprintf(stderr, "--%s wants an integer >= %ld, got '%s'\n", flag,
                 static_cast<long>(min), text.c_str());
    return false;
  }
  *out = static_cast<Int>(value);
  return true;
}

/// Parses --`flag`'s value as a finite decimal number >= `min` (> `min`
/// when `exclusive`); anything else names the flag on stderr and returns
/// false.
inline bool ParseDoubleFlag(const char* flag, const std::string& text,
                            double min, double* out, bool exclusive = false) {
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value) || value < min || (exclusive && value == min)) {
    std::fprintf(stderr, "--%s wants a number %s %g, got '%s'\n", flag,
                 exclusive ? ">" : ">=", min, text.c_str());
    return false;
  }
  *out = value;
  return true;
}

}  // namespace redoop

#endif  // REDOOP_TOOLS_CLI_FLAGS_H_
