#pragma once

/// \file trace.hpp
/// Per-request span tracing for the forecast serving stack.
///
/// Answers "where did this 40 ms request go?": every sampled request
/// gets a TraceContext (one 64-bit id) carried on ForecastRequest from
/// submit() through queue wait, breaker/cache triage, batch assembly,
/// forward (with retries), verification, fallback, and promise
/// resolution.
///
/// Recording model: spans are fixed-size PODs (static-lifetime stage
/// string, no heap members) written into per-thread ring buffers owned
/// by the global TraceRecorder.  A thread's ring is allocated on its
/// first record (warm-up) and reused for the thread's lifetime — and
/// recycled to later threads after exit — so steady-state recording
/// performs zero heap allocations; when tracing is disabled the whole
/// layer costs one relaxed atomic load per call site.
///
/// There are no parent-span ids: trees are reconstructed at dump time by
/// time-interval containment within a trace, which works across threads
/// (one request's spans may come from the submitting thread and from a
/// worker) without threading parent state through the stack.
///
/// Env knobs: COASTAL_TRACE ("0"/unset off, "1" all requests, a float in
/// (0,1) samples that fraction deterministically by id hash; at or below
/// 0 is off and above 1 is all; NaN, or text that is not one number,
/// throws util::CheckError naming the variable) and COASTAL_TRACE_RING
/// (spans per thread ring, default 4096).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace coastal::obs {

/// Carried on ForecastRequest.  id == 0 means untraced (the common
/// case); ids are process-unique otherwise.
struct TraceContext {
  uint64_t id = 0;
};

struct TraceConfig {
  bool enabled = false;
  /// Fraction of requests traced; sampling is deterministic in the
  /// trace id (splitmix64 hash threshold), so a replayed run samples
  /// the same requests.
  double sample_rate = 1.0;
  /// Spans retained per thread ring; older spans are overwritten.
  int ring_spans = 4096;
};

/// Apply COASTAL_TRACE / COASTAL_TRACE_RING on top of `base`.
TraceConfig trace_config_from_env(TraceConfig base);

/// Outcome tags on spans (bitmask).
enum TraceFlag : uint32_t {
  kError = 1u << 0,         ///< resolved with a typed ForecastError
  kDegraded = 1u << 1,      ///< breaker-degraded (numerical) service
  kCacheHit = 1u << 2,      ///< served from the forecast cache
  kFallback = 1u << 3,      ///< frames recomputed by the numerical model
  kFaultRetry = 1u << 4,    ///< forward needed >= 1 retry attempt
  kVerifyFailed = 1u << 5,  ///< physics verification rejected the frames
  kPrefixResume = 1u << 6,  ///< chain resumed from a cached prefix
  kWorkerLost = 1u << 7,    ///< failed by the watchdog (hung worker)
};

/// One recorded span.  POD on purpose: ring writes must not allocate.
struct TraceSpan {
  uint64_t trace_id = 0;
  int64_t start_us = 0;  ///< µs since the process trace epoch
  int64_t end_us = 0;
  const char* stage = "";  ///< static-lifetime stage name
  uint32_t flags = 0;      ///< TraceFlag bitmask
  int32_t code = -1;       ///< ForecastErrorCode when kError, else -1
  int64_t extra = 0;       ///< stage-specific (batch size, attempts, ...)
};

/// µs since the process-wide steady_clock trace epoch.
int64_t now_us();
int64_t to_us(std::chrono::steady_clock::time_point tp);

/// Global span sink.
class TraceRecorder {
 public:
  /// Per-thread span ring (defined in trace.cpp; public so the
  /// thread-exit recycling handle can name it).
  struct Ring;

  static TraceRecorder& instance();

  /// Reconfigure (enable/disable, sampling, ring size).  Retained spans
  /// survive; ring size applies to rings allocated afterwards.
  void configure(const TraceConfig& cfg);
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// New trace id, or 0 when disabled or not sampled.
  uint64_t begin_trace();
  void record(const TraceSpan& s);

  /// Every retained span, all threads, unordered.
  std::vector<TraceSpan> spans() const;
  /// Retained spans of one trace.
  std::vector<TraceSpan> spans_for(uint64_t trace_id) const;
  void clear();
  /// JSON span trees: {"traces": [{"trace": id, "spans": [...]}]} with
  /// children nested by time containment (tools/trace_view.py renders
  /// this as an indented timeline).
  std::string dump_json() const;

 private:
  TraceRecorder() = default;

  Ring* acquire_ring();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  /// splitmix64(id) <= threshold samples the trace.
  std::atomic<uint64_t> sample_threshold_{~0ull};
  std::atomic<int> ring_spans_{4096};
  mutable std::mutex rings_m_;
  std::vector<std::unique_ptr<Ring>> rings_;  ///< owned for process life
  std::vector<Ring*> free_rings_;             ///< rings of exited threads
};

}  // namespace coastal::obs
