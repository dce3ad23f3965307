#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

/// Typed error channel for the ntr library boundaries.
///
/// Internally the library keeps using exceptions (they compose with RAII
/// and cross the thread-pool join cleanly), but every exception that can
/// escape a solver/flow/io entry point now carries a StatusCode, and the
/// `try_*` boundary wrappers convert any escape into a Status/StatusOr so
/// batch drivers can treat one net's singular matrix or timeout as a
/// recoverable per-net outcome instead of process death.
namespace ntr::runtime {

/// Failure categories of the routing runtime. Keep stable: quarantine
/// reports, exit codes, and the fault-injection table key off them.
enum class StatusCode {
  kOk = 0,
  kBadInput,           ///< malformed net/routing/arguments (caller mistake)
  kIoError,            ///< file cannot be opened / read / written
  kSingular,           ///< singular or non-SPD matrix in a solve
  kNonFinite,          ///< NaN/inf appeared in a waveform or solution
  kTimeout,            ///< a Deadline expired before the work finished
  kCancelled,          ///< a CancelToken was triggered
  kResourceExhausted,  ///< allocation or capacity failure
  kUnavailable,        ///< peer refused / unreachable (retry may succeed)
  kConnectionReset,    ///< established connection reset or closed by peer
  kInternal,           ///< contract violation or unclassified failure
};

/// Stable lowercase name ("ok", "bad-input", "singular", ...).
[[nodiscard]] const char* status_code_name(StatusCode code);

/// A StatusCode plus a human-readable message. Cheap to copy when ok.
/// Class-level [[nodiscard]]: every function returning a Status by value
/// forces the caller to look at it (or discard with an explicit (void)),
/// mirroring the ntr_analyze unchecked-status rule at compile time.
class [[nodiscard]] Status {
 public:
  Status() = default;  ///< ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status ok_status() { return Status{}; }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "singular: EnvelopeCholesky: matrix not positive definite (n=12, pivot 4
  /// reduced to -0.5)".
  [[nodiscard]] std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// The exception the library throws for recoverable environmental and
/// numerical failures (replacing raw std::runtime_error on the hot
/// paths). Boundary wrappers map it back to its Status.
class NtrError : public std::runtime_error {
 public:
  NtrError(StatusCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] Status to_status() const { return Status{code_, what()}; }

 private:
  StatusCode code_;
};

/// Maps an exception to the typed channel:
///   NtrError                                  -> its own code
///   invalid_argument / out_of_range / domain  -> kBadInput
///   bad_alloc / length_error                  -> kResourceExhausted
///   other logic_error (ContractViolation)     -> kInternal
///   anything else                             -> kInternal
[[nodiscard]] Status exception_to_status(const std::exception& e);

/// Either a value or a non-ok Status. Minimal absl-flavoured carrier for
/// the library's boundary functions.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    if (status_.ok())
      throw std::logic_error("StatusOr: constructed from an ok Status");
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  /// Throws NtrError when not ok, so `value()` misuse surfaces typed.
  [[nodiscard]] T& value() & {
    ensure_ok();
    return *value_;
  }
  [[nodiscard]] const T& value() const& {
    ensure_ok();
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    ensure_ok();
    return *std::move(value_);
  }

  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

 private:
  void ensure_ok() const {
    if (!ok()) throw NtrError(status_.code(), "StatusOr: " + status_.to_string());
  }

  Status status_;  ///< ok iff value_ holds
  std::optional<T> value_;
};

}  // namespace ntr::runtime
