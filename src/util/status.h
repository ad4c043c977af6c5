// Status and Result types used across the Cedar FSD reproduction.
//
// Every fallible operation in the disk simulator and the file systems returns
// either a `Status` or a `Result<T>`. Errors are deliberately coarse: they
// model the failure classes the paper's design reasons about (damaged
// sectors, label mismatches, corrupt metadata), not host-OS errno values.

#ifndef CEDAR_UTIL_STATUS_H_
#define CEDAR_UTIL_STATUS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace cedar {

// Failure classes. Grouped by the subsystem that raises them.
enum class ErrorCode : std::uint8_t {
  kOk = 0,

  // Generic.
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,

  // Disk / hardware (the paper's failure model, section 5.3).
  kSectorDamaged,     // medium error on one or two consecutive sectors
  kLabelMismatch,     // Trident label check failed (CFS robustness check)
  kDeviceCrashed,     // volume is in the post-crash state; remount required
  kReadTransient,     // soft read error; the same request may succeed retried

  // File-system metadata.
  kCorruptMetadata,   // checksum / structural validation failed
  kNoFreeSpace,       // allocator could not satisfy a request
  kChecksumMismatch,  // replicated copy disagreement that could not be repaired
};

// Human-readable name for an ErrorCode (for messages and test output).
std::string_view ErrorCodeName(ErrorCode code);

// A cheap status object: an ErrorCode plus an optional context message.
class [[nodiscard]] Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  explicit Status(ErrorCode code, std::string message = {})
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

inline Status OkStatus() { return Status::Ok(); }

inline Status MakeError(ErrorCode code, std::string message = {}) {
  return Status(code, std::move(message));
}

// Result<T>: either a value or a failing Status. A minimal `expected`-like
// type; we avoid std::expected to stay portable to GCC 12's libstdc++.
template <typename T>
class [[nodiscard]] Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(T value) : data_(std::move(value)) {}
  Result(Status status) : data_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(data_); }

  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  Status status() const {
    if (ok()) {
      return OkStatus();
    }
    return std::get<Status>(data_);
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace cedar

// Propagate a non-OK Status from an expression. The status variable name is
// line-unique so nested/adjacent uses never shadow each other.
#define CEDAR_RETURN_IF_ERROR(expr)                                 \
  CEDAR_RETURN_IF_ERROR_IMPL_(CEDAR_STATUS_CONCAT_(status__, __LINE__), expr)

#define CEDAR_RETURN_IF_ERROR_IMPL_(tmp, expr) \
  do {                                         \
    ::cedar::Status tmp = (expr);              \
    if (!tmp.ok()) {                           \
      return tmp;                              \
    }                                          \
  } while (false)

// Evaluate a Result<T> expression; on success bind the value, else return.
#define CEDAR_ASSIGN_OR_RETURN(lhs, expr)       \
  CEDAR_ASSIGN_OR_RETURN_IMPL_(                 \
      CEDAR_STATUS_CONCAT_(result__, __LINE__), lhs, expr)

#define CEDAR_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) {                                   \
    return tmp.status();                             \
  }                                                  \
  lhs = std::move(tmp).value()

#define CEDAR_STATUS_CONCAT_(a, b) CEDAR_STATUS_CONCAT_IMPL_(a, b)
#define CEDAR_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // CEDAR_UTIL_STATUS_H_
