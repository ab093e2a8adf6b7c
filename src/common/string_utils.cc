#include "common/string_utils.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <cmath>

#include "common/logging.h"

namespace redoop {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  int64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (value > (INT64_MAX - (c - '0')) / 10) return false;  // Overflow.
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

std::string HumanBytes(int64_t bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 5) {
    v /= 1024.0;
    ++unit;
  }
  return StringPrintf("%.1f %s", v, kUnits[unit]);
}

std::string HumanDuration(double seconds) {
  if (seconds < 0) return "-" + HumanDuration(-seconds);
  if (seconds < 60.0) return StringPrintf("%.1fs", seconds);
  int64_t total = static_cast<int64_t>(std::llround(seconds));
  int64_t h = total / 3600;
  int64_t m = (total % 3600) / 60;
  int64_t s = total % 60;
  if (h > 0) return StringPrintf("%ldh%02ldm%02lds", h, m, s);
  return StringPrintf("%ldm%02lds", m, s);
}

std::string StringPrintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  // One pass for the common short result; only a longer one is measured
  // here and formatted again at its exact size.
  char buf[256];
  const int size = std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  std::string result;
  if (size > 0 && static_cast<size_t>(size) < sizeof(buf)) {
    result.assign(buf, static_cast<size_t>(size));
  } else if (size > 0) {
    result.resize(static_cast<size_t>(size));
    std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

CharWriter& CharWriter::Append(std::string_view text) {
  if (text.size() > static_cast<size_t>(end_ - p_)) Overflow();
  std::memcpy(p_, text.data(), text.size());
  p_ += text.size();
  return *this;
}

void CharWriter::Overflow() const {
  REDOOP_LOG_FATAL << "CharWriter: " << (end_ - begin_)
                   << "-byte buffer is too small";
}

}  // namespace redoop
