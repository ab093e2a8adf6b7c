#include "obs/trace/trace_id.h"

#include <charconv>
#include <cstddef>

namespace redoop {
namespace obs {
namespace trace {

namespace {
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/// Width of IdHex's rendering.
constexpr size_t kIdHexChars = 16;

/// IdHex's 16 chars written to `out` (no terminator); returns the end.
char* WriteIdHex(SpanId id, char* out) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    *out++ = kHexDigits[(id >> shift) & 0xf];
  }
  return out;
}

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

}  // namespace trace
}  // namespace obs
}  // namespace redoop
