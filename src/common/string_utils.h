#ifndef REDOOP_COMMON_STRING_UTILS_H_
#define REDOOP_COMMON_STRING_UTILS_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace redoop {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Joins the pieces with `sep`.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a nonnegative integer; returns false on malformed input.
bool ParseInt64(std::string_view s, int64_t* out);

/// Renders bytes with a binary-unit suffix, e.g. "64.0 MB".
std::string HumanBytes(int64_t bytes);

/// Renders seconds as "1h02m03s" / "42.5s" style.
std::string HumanDuration(double seconds);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Builds a short string in a caller's char buffer without printf: the
/// bytes "%s", "%d" / "%ld" / "%lu" and "%.<p>f" would produce, rendered
/// with memcpy and std::to_chars. An append past the buffer's end is a
/// checked error, never a truncation.
class CharWriter {
 public:
  template <size_t N>
  explicit CharWriter(char (&buf)[N]) : begin_(buf), end_(buf + N), p_(buf) {}

  CharWriter& Append(std::string_view text);
  /// Decimal, like "%d" / "%ld" / "%lu".
  template <typename Int>
  CharWriter& AppendInt(Int v) {
    Advance(std::to_chars(p_, end_, v));
    return *this;
  }
  /// Fixed point with `precision` decimals, like "%.<precision>f"
  /// (round-half-even on exact binary ties, "-0.0" for negative zero).
  CharWriter& AppendFixed(double v, int precision) {
    Advance(std::to_chars(p_, end_, v, std::chars_format::fixed, precision));
    return *this;
  }

  std::string_view view() const {
    return {begin_, static_cast<size_t>(p_ - begin_)};
  }

 private:
  void Advance(std::to_chars_result r) {
    if (r.ec != std::errc()) Overflow();
    p_ = r.ptr;
  }
  [[noreturn]] void Overflow() const;

  char* begin_;
  char* end_;
  char* p_;
};

}  // namespace redoop

#endif  // REDOOP_COMMON_STRING_UTILS_H_
