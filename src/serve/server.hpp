#pragma once

/// \file server.hpp
/// ForecastServer — the serving front end that turns the paper's
/// one-forecast-at-a-time workflow (Fig. 1) into a concurrent service.
///
/// Architecture (pacs_bridge-style service layer around the domain core):
///
///   clients ──submit()──▶ input screening ─▶ cache key (hashed once)
///                             │ exact cache hit ──▶ resolved in submit()
///                             │ prefix hit / miss
///                             ▼
///                        RequestQueue (bounded)
///                             │ pop_batch (max-batch / max-wait)
///                        worker pool, one batch per worker at a time:
///                          triage  ──▶ deadline check, identical-episode
///                             │        collapse, circuit-breaker admit,
///                             │        forecast-cache probe (hits inserted
///                             │        while queued resolve here; prefix
///                             │        hits set the chain's start episode)
///                          compute ──▶ for each episode step e: one
///                             │        stacked surrogate forward over every
///                             │        live entry that starts at or before
///                             │        e (retries; no model lock, so
///                             │        workers forward concurrently),
///                             │        per-entry decode; deadlines checked
///                             │        between attempts and between steps
///                          settle  ──▶ core::verify_or_fallback (or the
///                             │        numerical route when degraded or
///                             │        the entry failed), cache fill
///                             └─▶ one sharer fan-out + ServerStats
///        watchdog ── heartbeats ──▶ retire hung worker, fail its batch
///                                   with kWorkerLost, spawn replacement
///
/// Concurrency contract: each worker runs its popped batch end to end —
/// pack, forward, decode, verify, fallback — with no lock around the
/// model, so W workers run up to W forwards of one model at once.  The
/// eval forward is re-entrant: each Swin block builds its window plan and
/// mask in its constructor, the weights are only read, and all scratch
/// (arena, workspace, BatchNorm groups) is per thread; concurrent
/// forwards of one model match the serial forward bitwise (pinned in
/// tests/test_surrogate.cpp and, through the server, over workers x
/// kernel threads x max_batch in tests/test_serve.cpp).  A worker parked
/// inside its forward therefore never delays another worker's request.
///
/// Failure contract (see reliability.hpp): every accepted request's future
/// resolves — with a result, or with a typed ForecastError.  A failure in
/// one coalesced entry never fails sharers of other entries; a hung worker
/// is detected by the watchdog and replaced without losing queued work; a
/// slot whose failure rate trips its circuit breaker serves the verified
/// numerical answer (degraded mode) until a half-open probe recovers it.
///
/// Results are bitwise identical to serial execution: every request's
/// frames match a one-request-at-a-time run of the same episode exactly,
/// for any arrival interleaving and any max_batch (grouped BatchNorm
/// statistics + batch-invariant kernels; pinned in tests/test_serve.cpp).
/// The reliability machinery is pure control flow around the same episode
/// code, so a run where no fault fires stays bitwise identical too.
///
/// Steady-state serving performs zero heap allocations per episode: each
/// episode step's stacked forward runs in a tensor::ArenaScope, so all
/// episode tensors bump-allocate from recycled pooled chunks (also pinned
/// in test_serve.cpp via alloc_stats().total_allocs).

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/surrogate.hpp"
#include "core/workflow.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "serve/reliability.hpp"
#include "serve/scheduler.hpp"

namespace coastal::serve {

/// One servable (model, sample geometry) pair.  The model pointer is
/// non-owning and must outlive the server; the server flips it to eval
/// mode, and every worker then calls its forward concurrently, unlocked.
struct ModelSlot {
  core::SurrogateModel* model = nullptr;
  data::SampleSpec spec;
  /// Weight generation; part of every cache key, so bumping it on a
  /// reload invalidates all of the slot's cached forecasts at once.
  int version = 0;
};

/// Optional numerical-model fallback context (run_workflow's ROMS rerun).
/// The restart's tidal phase is anchored per request by the episode's own
/// initial-condition frame time (CenterFields::time), so traffic whose
/// windows advance through the forecast horizon falls back consistently.
struct FallbackContext {
  ocean::TidalForcing tides;
  ocean::PhysicsParams params;
};

struct ServerConfig {
  int workers = 1;             ///< episode pipeline workers
  size_t queue_capacity = 64;  ///< backpressure bound

  /// Full-queue policy: block the submitter until a slot frees, or reject
  /// immediately (submit() returns nullopt and the rejection is counted).
  enum class Overflow { kBlock, kReject };
  Overflow overflow = Overflow::kBlock;

  BatchPolicy batch;  ///< micro-batch coalescing knobs

  double threshold = 4.0e-4;    ///< mass-residual bound, m/s
  double snapshot_dt = 1800.0;  ///< seconds between forecast snapshots

  std::optional<FallbackContext> fallback;  ///< enable the ROMS rerun

  ReliabilityConfig reliability;  ///< retries, breaker, watchdog

  /// Content-addressed forecast cache (docs/caching.md).  Environment
  /// overrides (COASTAL_CACHE*) are applied at server construction; the
  /// effective policy is visible via config().cache.
  CachePolicy cache;

  /// Observability knobs (docs/observability.md).  Environment overrides
  /// (COASTAL_PROFILE, COASTAL_TRACE, COASTAL_TRACE_RING) are applied at
  /// server construction on top of these.
  struct ObsConfig {
    /// Feed the global stage profiler's histograms (queue/pack/gemm/
    /// attention/verify/...) — cheap enough to leave on by default.
    bool profile_stages = true;
    /// Per-request span recording; disabled by default (begin_trace()
    /// then costs one relaxed load per submit).
    obs::TraceConfig trace;
  };
  ObsConfig obs;
};

/// Aggregated serving metrics; `snapshot()` is safe to call while serving.
struct ServerStatsSnapshot {
  uint64_t submitted = 0;
  uint64_t served = 0;
  uint64_t rejected = 0;
  uint64_t fallbacks = 0;
  uint64_t batches = 0;    ///< coalesced forwards executed
  uint64_t coalesced = 0;  ///< requests served by sharing an identical entry
  // Reliability counters.
  uint64_t failed = 0;   ///< queued requests resolved with a typed error
  uint64_t invalid = 0;  ///< NaN/Inf windows refused at submit()
  uint64_t deadline_expired = 0;  ///< requests failed kDeadlineExceeded
  uint64_t retries = 0;           ///< forward retry attempts performed
  uint64_t degraded = 0;     ///< requests served in breaker-degraded mode
  uint64_t worker_lost = 0;  ///< in-flight requests failed by the watchdog
  uint64_t worker_restarts = 0;  ///< replacement workers spawned
  uint64_t breaker_trips = 0;    ///< closed -> open transitions, all slots
  int breaker_open_slots = 0;    ///< slots currently open or half-open
  // Forecast-cache counters (see CacheStatsSnapshot).
  uint64_t cache_hits = 0;         ///< requests served without any forward
  uint64_t cache_prefix_hits = 0;  ///< chains resumed from a cached prefix
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_bytes = 0;    ///< payload bytes currently cached
  uint64_t cache_entries = 0;  ///< entries currently cached
  double p50_ms = 0.0;       ///< end-to-end request latency percentiles
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double throughput_rps = 0.0;  ///< served / wall time of the serving span
  /// Requests per coalesced forward (served / batches) — counts sharers
  /// of collapsed identical episodes, unlike batch_hist below.
  double mean_batch = 0.0;
  /// batch_hist[i] counts forwards with i+1 *distinct* episodes (last
  /// bucket: >= kBatchHistBuckets).
  static constexpr int kBatchHistBuckets = 16;
  std::array<uint64_t, kBatchHistBuckets> batch_hist{};
  size_t queue_depth = 0;  ///< instantaneous
  double fallback_rate() const {
    return served ? static_cast<double>(fallbacks) / served : 0.0;
  }
};

class ForecastServer {
 public:
  /// `grid` (non-owning, may be null) enables verification and the ROMS
  /// fallback; without it episodes are served unverified.
  ForecastServer(std::vector<ModelSlot> models, const data::Normalizer& norm,
                 const ocean::Grid* grid, const ServerConfig& config);
  ~ForecastServer();  ///< graceful: shutdown() if still running

  ForecastServer(const ForecastServer&) = delete;
  ForecastServer& operator=(const ForecastServer&) = delete;

  /// Serve one episode.  Returns the result future, or nullopt when the
  /// request was rejected (queue full under Overflow::kReject, or server
  /// shut down).  Validates the window against the slot's spec; a window
  /// containing NaN/Inf resolves the returned future immediately with
  /// ForecastError::kInvalidInput (when screening is enabled).  With the
  /// cache on, the window is hashed once into its cache key; when the
  /// queue is open and the slot's breaker closed, an exact cache hit
  /// resolves the future before submit() returns (queue_seconds 0,
  /// batch_size 0, sharers 1) without taking a queue slot.  Prefix hits
  /// and misses are enqueued, carrying the key to the worker.
  std::optional<std::future<ForecastResult>> submit(ForecastRequest request);

  /// Stop accepting requests, drain every queued episode, join workers.
  /// Releases fault-injected hangs so a chaos run always terminates.
  /// Idempotent; the destructor calls it.
  void shutdown();

  ServerStatsSnapshot stats() const;
  const ServerConfig& config() const { return config_; }

  /// The server's metrics registry: server counters/histograms, cache
  /// counters, breaker state, fault-site totals, and stage-profiler
  /// histograms all snapshot together.  Callers may register additional
  /// instruments; the registry outlives every component that feeds it.
  obs::Registry& metrics() { return registry_; }
  /// Prometheus text exposition of a full registry snapshot.
  std::string metrics_text() const { return registry_.snapshot().to_prometheus(); }
  /// JSON dump of the same snapshot.
  std::string metrics_json() const { return registry_.snapshot().to_json(); }

 private:
  /// A popped batch whose promises may be taken over by the watchdog.
  /// All promise resolution goes through claim() under `m`, so a hung
  /// worker that later resumes can never double-resolve a request the
  /// watchdog already failed.
  struct InFlightBatch {
    std::mutex m;
    bool abandoned = false;  ///< watchdog owns the unresolved promises now
    std::vector<PendingRequest> reqs;
    std::vector<char> resolved;  ///< per request, guarded by m
    /// Model slot whose half-open probe this batch is, until the probe
    /// reports (-1 otherwise); guarded by m.
    int probe_slot = -1;
  };

  /// One serving worker: the thread plus its heartbeat telemetry.
  struct WorkerState {
    std::thread thread;
    std::atomic<uint64_t> beat{0};  ///< bumped at serving checkpoints
    std::atomic<bool> busy{false};  ///< inside serve_batch
    std::atomic<bool> retired{false};  ///< watchdog gave up on this worker
    std::atomic<bool> exited{false};   ///< worker_loop returned
    std::mutex m;
    std::shared_ptr<InFlightBatch> inflight;  ///< guarded by m
  };

  struct Entry;  ///< one distinct chain of a popped batch (server.cpp)
  struct Batch;  ///< a popped batch's per-entry serving state (server.cpp)

  void worker_loop(WorkerState* state);
  /// triage -> compute -> settle over one popped batch.
  void serve_batch(WorkerState* state,
                   const std::shared_ptr<InFlightBatch>& inflight);
  /// Deadline check, coalescing, breaker admission, cache probe; delivers
  /// hits and expired requests.  False when no entry needs compute.
  bool triage(Batch& b);
  /// The episode-step loop; false when the watchdog retired this worker.
  bool compute(Batch& b);
  /// One step's stacked forward (packed, retried, decoded) over `riders`.
  bool run_step(Batch& b, int e, std::span<const size_t> riders);
  /// Fail kDeadlineExceeded each unresolved entry of `us` whose every
  /// sharer has expired; returns how many of `us` are still unresolved.
  size_t expire(Batch& b, std::span<const size_t> us, const char* why);
  /// Verify (or fall back), fill the cache, and fan every entry out.  An
  /// entry whose sharers have all expired gets no numerical rerun.
  void settle(Batch& b);
  /// The one sharer fan-out: resolve every request of entry `u` with
  /// `error` when set, else with `result` (the last sharer takes its
  /// frames by move), and retire the entry.
  void fan_out(Batch& b, size_t u, ForecastResult result,
               std::exception_ptr error = nullptr,
               obs::Counter* extra_counter = nullptr, uint32_t flags = 0,
               const obs::TraceSpan* stage = nullptr);
  /// Report the probe outcome of `b` to its slot's breaker, once: the
  /// first caller (settle, the watchdog retiring the worker, or the
  /// worker loop after a batch that ended early) takes the slot.
  void report_probe(InFlightBatch& b, bool success);
  void watchdog_loop();
  /// Spawn a worker; caller holds workers_mutex_.
  WorkerState* spawn_worker_locked();
  /// Claim request `i` of `b` for resolution: marks it resolved and
  /// returns its promise, or nullptr when the batch was abandoned or the
  /// request already resolved (caller skips it entirely).  The caller
  /// records stats BEFORE resolving the claimed promise — a client that
  /// observes its outcome must also observe it in stats().
  std::promise<ForecastResult>* claim(InFlightBatch& b, size_t i);
  /// Resolve the claimed promise `p` of `req` with `error`: count it into
  /// the failed counter (and optionally one more) and record the
  /// error-tagged spans before setting the exception.
  void resolve_error(const PendingRequest& req,
                     std::promise<ForecastResult>& p, std::exception_ptr error,
                     obs::Counter* extra_counter);
  /// Resolve the claimed promise `p` of `req` with `result` — the one
  /// delivery routine for computed entries and cache hits alike: the
  /// deadline check, queue/service seconds (service began at
  /// `assembled`), the counters and latency sample, the spans (`stage`
  /// when given, then resolve/request tagged `flags`), then set_value.
  void deliver(const PendingRequest& req, std::promise<ForecastResult>& p,
               ForecastResult result,
               std::chrono::steady_clock::time_point assembled,
               uint32_t flags, const obs::TraceSpan* stage = nullptr);

  std::vector<ModelSlot> models_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  const data::Normalizer& norm_;
  const ocean::Grid* grid_;
  ServerConfig config_;
  std::optional<core::MassVerifier> verifier_;  ///< engaged when grid_ set
  /// The numerical model behind config_.fallback (engaged with it).
  std::optional<core::NumericalFallback> fallback_;

  /// Metrics registry.  Declared BEFORE cache_: the cache registers its
  /// counters here, so the registry must outlive it.  Mutable because
  /// stats()/metrics_text() snapshot from const contexts.
  mutable obs::Registry registry_;
  // Server instrument handles (registered in the constructor; plain
  // pointers into registry_-owned storage, valid for the server's life).
  obs::Counter* c_submitted_ = nullptr;
  obs::Counter* c_served_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Counter* c_fallbacks_ = nullptr;
  obs::Counter* c_batches_ = nullptr;
  obs::Counter* c_coalesced_ = nullptr;
  obs::Counter* c_failed_ = nullptr;
  obs::Counter* c_invalid_ = nullptr;
  obs::Counter* c_deadline_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_degraded_ = nullptr;
  obs::Counter* c_worker_lost_ = nullptr;
  obs::Counter* c_worker_restarts_ = nullptr;
  obs::Histogram* h_latency_ = nullptr;  ///< end-to-end latency, µs
  obs::Histogram* h_batch_ = nullptr;    ///< distinct episodes per forward
  /// Serving span for throughput_rps, µs since the trace epoch; -1 until
  /// the first serve (to_us() of the first serve may legitimately be 0).
  std::atomic<int64_t> first_serve_us_{-1};
  std::atomic<int64_t> last_serve_us_{-1};

  std::unique_ptr<ForecastCache> cache_;  ///< cross-request result reuse

  RequestQueue queue_;
  mutable std::mutex workers_mutex_;
  std::vector<std::unique_ptr<WorkerState>> workers_;  ///< guarded above
  int restarts_left_ = 0;  ///< guarded by workers_mutex_
  bool shut_down_ = false;
  std::mutex shutdown_mutex_;

  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
};

}  // namespace coastal::serve
