#include "obs/trace/trace_context.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

namespace redoop {
namespace obs {
namespace trace {

namespace {
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::string_view kTokenPrefix = "redoop-trace/";

/// FNV-1a over a canonical string fed piece by piece: after any sequence
/// of calls the state equals the hash of the pieces' concatenation.
class CanonicalHash {
 public:
  CanonicalHash& Bytes(std::string_view s) {
    for (char c : s) Byte(c);
    return *this;
  }
  /// A "%.*s" argument: the bytes before the first NUL.
  CanonicalHash& Text(std::string_view s) {
    return Bytes(s.substr(0, s.find('\0')));
  }
  CanonicalHash& Hex(SpanId id) {
    char hex[kIdHexChars];
    WriteIdHex(id, hex);
    return Bytes({hex, kIdHexChars});
  }
  CanonicalHash& Decimal(int64_t v) {
    char digits[20];  // "-9223372036854775808" is the longest int64.
    return Bytes(
        {digits, std::to_chars(digits, digits + sizeof(digits), v).ptr});
  }
  SpanId Id() const { return h_ != 0 ? h_ : kFnvOffset; }

 private:
  void Byte(char c) {
    h_ ^= static_cast<uint8_t>(c);
    h_ *= kFnvPrime;
  }

  uint64_t h_ = kFnvOffset;
};

}  // namespace

char* WriteIdHex(SpanId id, char* out) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    *out++ = kHexDigits[(id >> shift) & 0xf];
  }
  return out;
}

SpanId DeriveId(std::string_view canonical) {
  return CanonicalHash().Bytes(canonical).Id();
}

std::string IdHex(SpanId id) {
  std::string hex(kIdHexChars, '0');
  WriteIdHex(id, hex.data());
  return hex;
}

SpanId TraceIdFor(std::string_view system, std::string_view query) {
  return CanonicalHash().Bytes("trace:").Bytes(system).Bytes("/")
      .Bytes(query).Id();
}

SpanId WindowSpanId(SpanId trace, int64_t recurrence) {
  return CanonicalHash().Bytes("window:").Hex(trace).Bytes(":")
      .Decimal(recurrence).Id();
}

SpanId PhaseSpanId(SpanId window_span, std::string_view job,
                   int64_t occurrence, std::string_view kind) {
  return CanonicalHash().Bytes("phase:").Hex(window_span).Bytes(":")
      .Text(job).Bytes("#").Decimal(occurrence).Bytes(":").Text(kind).Id();
}

SpanId TaskSpanId(SpanId trace, int64_t task, int64_t attempt) {
  return CanonicalHash().Bytes("task:").Hex(trace).Bytes(":").Decimal(task)
      .Bytes(":").Decimal(attempt).Id();
}

SpanId CacheOpSpanId(SpanId trace, std::string_view event_type,
                     std::string_view key, int64_t occurrence) {
  return CanonicalHash().Bytes("cacheop:").Hex(trace).Bytes(":")
      .Text(event_type).Bytes(":").Text(key).Bytes("#").Decimal(occurrence)
      .Id();
}

SpanId PaneSpanId(SpanId trace, int64_t source, int64_t pane,
                  int64_t built_window) {
  return CanonicalHash().Bytes("pane:").Hex(trace).Bytes(":S")
      .Decimal(source).Bytes(":P").Decimal(pane).Bytes(":W")
      .Decimal(built_window).Id();
}

SpanId FailureSpanId(SpanId trace, int64_t node, int64_t occurrence) {
  return CanonicalHash().Bytes("failure:").Hex(trace).Bytes(":N")
      .Decimal(node).Bytes("#").Decimal(occurrence).Id();
}

std::string TraceContext::Serialize() const {
  // "redoop-trace/<trace16>/<span16>/<window>/<s|u>", the window at most
  // 20 chars.
  char buf[kTokenPrefix.size() + 2 * (kIdHexChars + 1) + 20 + 2];
  char* p = std::copy(kTokenPrefix.begin(), kTokenPrefix.end(), buf);
  p = WriteIdHex(trace_id, p);
  *p++ = '/';
  p = WriteIdHex(span_id, p);
  *p++ = '/';
  p = std::to_chars(p, p + 20, window).ptr;
  *p++ = '/';
  *p++ = sampled ? 's' : 'u';
  return std::string(buf, p);
}

namespace {

bool ParseHex16(std::string_view s, uint64_t* out) {
  if (s.size() != 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

}  // namespace

bool TraceContext::Parse(std::string_view token, TraceContext* out) {
  const std::string_view prefix(kTokenPrefix);
  if (token.substr(0, prefix.size()) != prefix) return false;
  token.remove_prefix(prefix.size());

  const size_t slash1 = token.find('/');
  if (slash1 == std::string_view::npos) return false;
  const size_t slash2 = token.find('/', slash1 + 1);
  if (slash2 == std::string_view::npos) return false;
  const size_t slash3 = token.find('/', slash2 + 1);
  if (slash3 == std::string_view::npos) return false;

  TraceContext parsed;
  if (!ParseHex16(token.substr(0, slash1), &parsed.trace_id)) return false;
  if (!ParseHex16(token.substr(slash1 + 1, slash2 - slash1 - 1),
                  &parsed.span_id)) {
    return false;
  }
  const std::string window_str(
      token.substr(slash2 + 1, slash3 - slash2 - 1));
  if (window_str.empty()) return false;
  char* end = nullptr;
  parsed.window = std::strtoll(window_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  const std::string_view flag = token.substr(slash3 + 1);
  if (flag == "s") {
    parsed.sampled = true;
  } else if (flag == "u") {
    parsed.sampled = false;
  } else {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace trace
}  // namespace obs
}  // namespace redoop
