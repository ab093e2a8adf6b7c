#include "common/status.h"

#include "common/logging.h"

namespace redoop {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kAborted:
      return "Aborted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result = StatusCodeToString(code_);
  if (!message_.empty()) {
    result += ": ";
    result += message_;
  }
  return result;
}

void AbortOnMissingValue(const Status& status) {
  REDOOP_LOG_FATAL << "StatusOr::value() without a value: "
                   << status.ToString();
}

}  // namespace redoop
