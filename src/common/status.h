#ifndef REDOOP_COMMON_STATUS_H_
#define REDOOP_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace redoop {

/// Error category carried by a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kResourceExhausted,
  kUnavailable,
  kInternal,
  kAborted,
};

/// Returns a short human-readable name for `code` (e.g. "NotFound").
const char* StatusCodeToString(StatusCode code);

/// Lightweight success/error result, modeled after absl::Status /
/// rocksdb::Status. Functions that can fail for recoverable reasons return a
/// Status (or StatusOr<T>); programming errors are handled with assertions.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Logs `status` as fatal: StatusOr::value() was called on an error.
[[noreturn]] void AbortOnMissingValue(const Status& status);

/// Either a value of type T or an error Status. A default-constructed
/// StatusOr holds an Internal error.
template <typename T>
class StatusOr {
 public:
  StatusOr() : status_(Status::Internal("uninitialized StatusOr")) {}
  StatusOr(T value)  // NOLINT: implicit by design, mirrors absl::StatusOr.
      : status_(Status::OK()), value_(std::move(value)) {}
  StatusOr(Status status)  // NOLINT: implicit by design.
      : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Requires ok(): the value of a non-OK StatusOr aborts with its status.
  const T& value() const& {
    CheckHasValue();
    return *value_;
  }
  T& value() & {
    CheckHasValue();
    return *value_;
  }
  T&& value() && {
    CheckHasValue();
    return *std::move(value_);
  }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  void CheckHasValue() const {
    if (!value_.has_value()) AbortOnMissingValue(status_);
  }

  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status to the caller.
#define REDOOP_RETURN_IF_ERROR(expr)                \
  do {                                              \
    ::redoop::Status _redoop_status_ = (expr);      \
    if (!_redoop_status_.ok()) return _redoop_status_; \
  } while (0)

}  // namespace redoop

#endif  // REDOOP_COMMON_STATUS_H_
