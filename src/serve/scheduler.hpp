#pragma once

/// \file scheduler.hpp
/// Request queue + micro-batching scheduler for the forecast server.
///
/// The serving hot path wins throughput the way batched inference engines
/// do (Marian-style): concurrent episode requests that target the same
/// (model, SampleSpec) are coalesced into ONE surrogate call along the
/// tensor batch dimension B.  The kernels are already batch-parallel, so
/// B > 1 amortizes per-op dispatch, operand packing, and workspace reuse
/// that dominate a B = 1 forward at small mesh scale — while grouped
/// BatchNorm statistics (nn::BatchStatScope) keep every coalesced
/// request's result bitwise identical to a standalone forward.
///
/// The batching policy is the classic max-batch / max-wait pair: a worker
/// popping the queue takes the front request, then keeps collecting
/// compatible requests (same model_id and window length; FIFO order
/// preserved within the key) until it holds `max_batch` of them or
/// `max_wait_us` has elapsed
/// since the pop began.  Requests for other models are left queued for
/// the next worker, so one slow model cannot starve another's traffic.
///
/// Backpressure is the queue's bounded capacity: push() either blocks
/// until a slot frees or rejects immediately (ServerConfig::Overflow).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "core/verification.hpp"
#include "data/center_fields.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"

namespace coastal::serve {

/// One forecast chain to serve: e*T+1 normalized frames for e >= 1
/// episodes — the initial condition at t = 0 and the lateral boundary
/// conditions for every later step (the regional-model contract; e = 1 is
/// the single-episode case, e > 1 chains autoregressively exactly like
/// core::rollout).  `model_id` selects the server's model slot; requests
/// are only ever batched with others of the same slot *and* chain length.
struct ForecastRequest {
  int model_id = 0;
  std::vector<data::CenterFields> window;
  /// Per-request deadline, measured from submit().  0 = no deadline.
  /// Expired requests fail with ForecastError::kDeadlineExceeded; the
  /// deadline is checked at queue pop, between retry attempts, between
  /// episode steps, and at fan-out (a computed result past its deadline
  /// is still an error — the client stopped waiting).
  int64_t timeout_us = 0;
  /// Per-request trace context; stamped by ForecastServer::submit() when
  /// tracing is enabled and the request is sampled (id 0 = untraced).
  obs::TraceContext trace;
};

/// What the client's future resolves to.
struct ForecastResult {
  std::vector<data::CenterFields> frames;  ///< T denormalized predictions
  core::VerificationResult verdict;        ///< meaningful when `verified`
  bool verified = false;   ///< physics check ran (server had a grid)
  bool fallback = false;   ///< frames recomputed by the numerical model
  /// Served while the slot's circuit breaker was open: the surrogate was
  /// bypassed entirely and `frames` are the numerical reference
  /// (implies `fallback`).
  bool degraded = false;
  int batch_size = 1;  ///< distinct episodes in the coalesced forward
  int sharers = 1;     ///< requests served by this request's batch entry
  /// Served from the content-addressed forecast cache (docs/caching.md):
  /// no surrogate forward ran for this request at all (batch_size 0).
  bool cache_hit = false;
  /// Frames reused from a cached prefix of this window; only the
  /// remaining frames.size() - resumed_frames were freshly computed.
  int resumed_frames = 0;
  double queue_seconds = 0.0;    ///< submit -> batch assembly
  double service_seconds = 0.0;  ///< batch assembly -> completion
};

/// A queued request awaiting service.
struct PendingRequest {
  ForecastRequest request;
  std::promise<ForecastResult> promise;
  std::chrono::steady_clock::time_point enqueued{};
  /// Absolute deadline derived from ForecastRequest::timeout_us at
  /// submit(); time_point{} (epoch) means no deadline.
  std::chrono::steady_clock::time_point deadline{};
  /// The window's cache key, hashed once at submit() (empty when the
  /// cache is off); the worker's probe and the post-verify insert reuse it.
  ForecastCache::Key cache_key;
};

/// Micro-batch coalescing knobs.
struct BatchPolicy {
  int max_batch = 8;         ///< hard cap on coalesced episodes per forward
  int64_t max_wait_us = 2000;  ///< collection window after the first pop
};

/// Thread-safe bounded MPMC queue with keyed micro-batch pops.
class RequestQueue {
 public:
  explicit RequestQueue(size_t capacity);

  /// Enqueue.  With `block`, waits for a free slot (backpressure stalls
  /// the producer); without, returns false immediately when full.  Always
  /// returns false once closed — the caller still owns `p` (and its
  /// promise) on rejection.
  bool push(PendingRequest& p, bool block);

  /// Pop one micro-batch per the policy (see file comment).  Blocks until
  /// at least one request is available; returns an empty vector only when
  /// the queue is closed *and* drained — the worker-loop exit signal.
  std::vector<PendingRequest> pop_batch(const BatchPolicy& policy);

  /// Stop accepting pushes and wake every waiter.  Queued requests remain
  /// poppable so shutdown can drain.
  void close();

  bool closed() const;
  size_t depth() const;

 private:
  /// Move every queued request with `model_id` AND `window_frames` window
  /// length into `out` (FIFO order), up to `max` total in `out`.  Caller
  /// holds the mutex.
  void extract_locked(int model_id, size_t window_frames, size_t max,
                      std::vector<PendingRequest>& out);

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<PendingRequest> items_;
  size_t capacity_;
  bool closed_ = false;
};

}  // namespace coastal::serve
