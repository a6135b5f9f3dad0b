#pragma once

/// \file reliability.hpp
/// The serving layer's failure vocabulary and policies: a typed error
/// taxonomy (so clients branch on codes, not string matching), bounded
/// deterministic retry, per-model-slot circuit breaking into degraded
/// mode, and the watchdog knobs.
///
/// Degraded mode is where this server differs from generic inference
/// serving: the workflow's verified-fallback design means the numerical
/// solver is always available as a bitwise-reference answer, so a tripped
/// breaker routes requests straight to `core::numerical_episode` instead
/// of shedding load.  Requests still complete — slower, but verified by
/// construction.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace coastal::serve {

/// Why a forecast request failed (or was refused).
enum class ForecastErrorCode {
  kInvalidInput,      ///< NaN/Inf in the IC window, rejected at submit
  kDeadlineExceeded,  ///< request's deadline passed before completion
  kWorkerLost,        ///< serving worker hung; watchdog failed the batch
  kModelFailure,      ///< forward failed after retries, no fallback route
  kCircuitOpen,       ///< slot degraded and no numerical fallback configured
};

const char* forecast_error_name(ForecastErrorCode code);

/// The typed exception every server-originated failure resolves to.
class ForecastError : public std::runtime_error {
 public:
  ForecastError(ForecastErrorCode code, const std::string& detail)
      : std::runtime_error(std::string(forecast_error_name(code)) +
                           (detail.empty() ? "" : ": " + detail)),
        code_(code) {}
  ForecastErrorCode code() const { return code_; }

 private:
  ForecastErrorCode code_;
};

/// Bounded retry with deterministic exponential backoff for *transient*
/// forward failures (injected faults, resource hiccups).  ForecastError
/// and CheckError are never retried — they are contract violations, not
/// transients.
struct RetryPolicy {
  int max_attempts = 3;      ///< total tries, including the first
  int64_t backoff_us = 500;  ///< sleep before retry k is backoff_us*2^(k-1)
};

/// Per-model-slot circuit breaker.  Outcomes are per distinct episode:
/// success = forward completed and verification passed (or verification
/// is off); failure = forward failed after retries, or verification fell
/// back.  Counting fallbacks as failures is deliberate — a surrogate
/// producing chronic garbage should stop burning forwards and serve the
/// numerical answer directly.
struct BreakerPolicy {
  bool enabled = true;
  int window = 16;       ///< sliding outcome window (<= kMaxWindow)
  int min_samples = 8;   ///< don't judge before this many outcomes
  double trip_rate = 0.5;      ///< failure fraction that opens the circuit
  int64_t cooldown_us = 250000;  ///< open -> half-open probe delay
  static constexpr int kMaxWindow = 64;
};

/// Hung-worker detection.  Disabled by default (hang_timeout_ms = 0):
/// the watchdog thread and its replacement workers only engage when a
/// deployment opts in.  A replacement serves at once, even while its
/// hung predecessor is still parked inside a model forward.
struct WatchdogPolicy {
  int64_t hang_timeout_ms = 0;  ///< 0 disables the watchdog entirely
  int64_t poll_ms = 50;         ///< heartbeat scan interval
  int max_restarts = 8;         ///< replacement-worker budget
};

/// Everything reliability-related in one ServerConfig field.
struct ReliabilityConfig {
  RetryPolicy retry;
  BreakerPolicy breaker;
  WatchdogPolicy watchdog;
};

/// Sliding-window failure-rate breaker for one model slot.
/// Thread-safe; all transitions happen inside admit()/record().
class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerPolicy& policy);

  /// How the next batch for this slot should run.
  enum class Mode {
    kNormal,    ///< closed: serve via the surrogate
    kDegraded,  ///< open: route straight to the numerical fallback
    kProbe,     ///< half-open: one surrogate batch decides recovery
  };

  /// Called once per batch before serving.  In the open state, after the
  /// cooldown has elapsed, exactly one caller receives kProbe (half-open);
  /// everyone else keeps kDegraded until the probe reports back.
  Mode admit();

  /// One outcome per distinct episode served normally.
  void record(bool success);

  /// The aggregate outcome of a kProbe batch: success closes the circuit,
  /// failure re-opens it (and restarts the cooldown).
  void probe_result(bool success);

  /// Report a non-probe failure burst (e.g. forward failed after retries
  /// for a whole batch); may trip the breaker like record(false) x n.
  void record_failures(int n);

  bool open() const;
  uint64_t trips() const;

 private:
  enum class State { kClosed, kOpen, kHalfOpen };

  void note_locked(bool success);
  void maybe_trip_locked();

  BreakerPolicy policy_;
  mutable std::mutex m_;
  State state_ = State::kClosed;
  bool outcomes_[BreakerPolicy::kMaxWindow] = {};
  int count_ = 0;  ///< valid outcomes in the ring (<= window)
  int head_ = 0;   ///< next write position
  uint64_t trips_ = 0;
  std::chrono::steady_clock::time_point opened_at_{};
};

}  // namespace coastal::serve
