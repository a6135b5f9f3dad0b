#include "serve/reliability.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace coastal::serve {

const char* forecast_error_name(ForecastErrorCode code) {
  switch (code) {
    case ForecastErrorCode::kInvalidInput:
      return "invalid input";
    case ForecastErrorCode::kDeadlineExceeded:
      return "deadline exceeded";
    case ForecastErrorCode::kWorkerLost:
      return "worker lost";
    case ForecastErrorCode::kModelFailure:
      return "model failure";
    case ForecastErrorCode::kCircuitOpen:
      return "circuit open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(const BreakerPolicy& policy) : policy_(policy) {
  COASTAL_CHECK_MSG(policy_.window >= 1 &&
                        policy_.window <= BreakerPolicy::kMaxWindow,
                    "breaker window out of [1," << BreakerPolicy::kMaxWindow
                                               << "]");
  policy_.min_samples = std::max(1, policy_.min_samples);
}

CircuitBreaker::Mode CircuitBreaker::admit() {
  if (!policy_.enabled) return Mode::kNormal;
  std::lock_guard<std::mutex> lock(m_);
  switch (state_) {
    case State::kClosed:
      return Mode::kNormal;
    case State::kHalfOpen:
      // A probe is already in flight; keep degrading until it reports.
      return Mode::kDegraded;
    case State::kOpen: {
      const auto now = std::chrono::steady_clock::now();
      if (now - opened_at_ >= std::chrono::microseconds(policy_.cooldown_us)) {
        state_ = State::kHalfOpen;
        return Mode::kProbe;
      }
      return Mode::kDegraded;
    }
  }
  return Mode::kNormal;
}

void CircuitBreaker::record(bool success) {
  if (!policy_.enabled) return;
  std::lock_guard<std::mutex> lock(m_);
  if (state_ != State::kClosed) return;  // degraded outcomes don't count
  note_locked(success);
  maybe_trip_locked();
}

void CircuitBreaker::record_failures(int n) {
  if (!policy_.enabled) return;
  std::lock_guard<std::mutex> lock(m_);
  if (state_ != State::kClosed) return;
  for (int i = 0; i < n && state_ == State::kClosed; ++i) {
    note_locked(false);
    maybe_trip_locked();
  }
}

void CircuitBreaker::probe_result(bool success) {
  if (!policy_.enabled) return;
  std::lock_guard<std::mutex> lock(m_);
  if (state_ != State::kHalfOpen) return;
  if (success) {
    // Recovery: close with a clean window so one old burst cannot
    // immediately re-trip.
    state_ = State::kClosed;
    count_ = 0;
    head_ = 0;
  } else {
    state_ = State::kOpen;
    opened_at_ = std::chrono::steady_clock::now();
  }
}

bool CircuitBreaker::open() const {
  std::lock_guard<std::mutex> lock(m_);
  return state_ != State::kClosed;
}

uint64_t CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(m_);
  return trips_;
}

void CircuitBreaker::note_locked(bool success) {
  outcomes_[head_] = success;
  head_ = (head_ + 1) % policy_.window;
  count_ = std::min(count_ + 1, policy_.window);
}

void CircuitBreaker::maybe_trip_locked() {
  if (count_ < policy_.min_samples) return;
  int failures = 0;
  for (int i = 0; i < count_; ++i) {
    if (!outcomes_[i]) ++failures;
  }
  if (static_cast<double>(failures) >=
      policy_.trip_rate * static_cast<double>(count_)) {
    state_ = State::kOpen;
    opened_at_ = std::chrono::steady_clock::now();
    ++trips_;
    count_ = 0;
    head_ = 0;
  }
}

}  // namespace coastal::serve
