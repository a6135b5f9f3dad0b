#include "serve/server.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "core/decode.hpp"
#include "core/rollout.hpp"
#include "data/sample.hpp"
#include "nn/layers.hpp"
#include "obs/profile.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/finite.hpp"

namespace coastal::serve {

namespace {

using clock = std::chrono::steady_clock;

double seconds_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(b - a)
      .count();
}

/// Record one span against trace `tid` — no-op when the request is
/// untraced (tid 0, the common case) or tracing is globally off.  Times
/// are µs on the obs::now_us() timeline.
void trace_span(uint64_t tid, const char* stage, int64_t t0, int64_t t1,
                uint32_t flags = 0, int code = -1, int64_t extra = 0) {
  if (tid == 0) return;
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  if (!rec.enabled()) return;
  obs::TraceSpan s;
  s.trace_id = tid;
  s.start_us = t0;
  s.end_us = t1;
  s.stage = stage;
  s.flags = flags;
  s.code = code;
  s.extra = extra;
  rec.record(s);
}

/// ForecastErrorCode of a typed error, -1 for anything else — the span
/// `code` tag.
int error_code_of(const std::exception_ptr& e) {
  if (!e) return -1;
  try {
    std::rethrow_exception(e);
  } catch (const ForecastError& fe) {
    return static_cast<int>(fe.code());
  } catch (...) {
  }
  return -1;
}

/// Fold one served request into the throughput span (first assembled /
/// last resolved, µs): CAS-claim the first, fetch-max the last.
void note_serve_span(std::atomic<int64_t>& first_us,
                     std::atomic<int64_t>& last_us,
                     std::chrono::steady_clock::time_point assembled,
                     std::chrono::steady_clock::time_point done) {
  const int64_t a = obs::to_us(assembled);
  const int64_t d = obs::to_us(done);
  int64_t expect = -1;
  first_us.compare_exchange_strong(expect, a, std::memory_order_acq_rel);
  int64_t cur = last_us.load(std::memory_order_relaxed);
  while (cur < d &&
         !last_us.compare_exchange_weak(cur, d, std::memory_order_acq_rel)) {
  }
}

/// Bitwise window equality — the identical-request coalescing predicate.
/// Differing cache keys prove the windows differ without reading them;
/// otherwise memcmp (not float ==), so NaN payloads and signed zeros never
/// merge episodes that would decode differently.
bool same_window(const PendingRequest& pa, const PendingRequest& pb) {
  const auto& ka = pa.cache_key.digests;
  const auto& kb = pb.cache_key.digests;
  if (!ka.empty() && !kb.empty() && ka.back() != kb.back()) return false;
  const auto& a = pa.request.window;
  const auto& b = pb.request.window;
  if (a.size() != b.size()) return false;
  auto eq = [](const std::vector<float>& p, const std::vector<float>& q) {
    return p.size() == q.size() &&
           std::memcmp(p.data(), q.data(), p.size() * sizeof(float)) == 0;
  };
  for (size_t t = 0; t < a.size(); ++t) {
    const auto& x = a[t];
    const auto& y = b[t];
    if (x.nx != y.nx || x.ny != y.ny || x.nz != y.nz) return false;
    if (!eq(x.u, y.u) || !eq(x.v, y.v) || !eq(x.w, y.w) ||
        !eq(x.zeta, y.zeta)) {
      return false;
    }
  }
  return true;
}

bool fields_finite(const data::CenterFields& f) {
  return util::all_finite(f.u) && util::all_finite(f.v) &&
         util::all_finite(f.w) && util::all_finite(f.zeta);
}

bool has_deadline(const PendingRequest& p) {
  return p.deadline != clock::time_point{};
}

std::exception_ptr typed_error(ForecastErrorCode code,
                               const std::string& detail) {
  return std::make_exception_ptr(ForecastError(code, detail));
}

/// Errors delivered to clients are always ForecastError; anything else is
/// wrapped as kModelFailure with the cause preserved in the message.
std::exception_ptr as_model_failure(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const ForecastError&) {
    return e;
  } catch (const std::exception& ex) {
    return typed_error(ForecastErrorCode::kModelFailure, ex.what());
  } catch (...) {
    return typed_error(ForecastErrorCode::kModelFailure, "unknown error");
  }
}

/// A forward failure worth retrying?  Contract violations (CheckError,
/// ForecastError) never are; injected faults and unknown runtime errors
/// are treated as transient.
bool is_transient(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const util::CheckError&) {
    return false;
  } catch (const ForecastError&) {
    return false;
  } catch (...) {
    return true;
  }
}

/// The result an exact cache hit serves: no forward ran for it
/// (batch_size 0) and the stored verdict applies as-is.
ForecastResult hit_result(ForecastCache::Probe&& hit, int sharers) {
  ForecastResult r;
  r.frames = std::move(hit.frames);
  r.batch_size = 0;
  r.sharers = sharers;
  r.cache_hit = true;
  r.verdict = hit.verdict;
  r.verified = hit.verified;
  return r;
}

}  // namespace

ForecastServer::ForecastServer(std::vector<ModelSlot> models,
                               const data::Normalizer& norm,
                               const ocean::Grid* grid,
                               const ServerConfig& config)
    : models_(std::move(models)),
      norm_(norm),
      grid_(grid),
      config_(config),
      queue_(config.queue_capacity) {
  COASTAL_CHECK_MSG(!models_.empty(), "ForecastServer needs >= 1 model slot");
  for (const auto& slot : models_) {
    COASTAL_CHECK_MSG(slot.model != nullptr, "null model in slot");
    slot.model->set_training(false);
  }
  if (grid_) verifier_.emplace(*grid_, config_.threshold);
  // Deployment knobs (COASTAL_CACHE*) override the configured policy; the
  // effective policy is stored back so config().cache tells the truth.
  config_.cache = cache_policy_from_env(config_.cache);
  cache_ = std::make_unique<ForecastCache>(config_.cache, &registry_);
  COASTAL_CHECK_MSG(!config_.fallback || grid_,
                    "the ROMS fallback requires a grid");
  if (config_.fallback) {
    fallback_.emplace(core::NumericalFallback{*grid_, config_.fallback->tides,
                                              config_.fallback->params});
  }
  for (size_t i = 0; i < models_.size(); ++i) {
    breakers_.push_back(
        std::make_unique<CircuitBreaker>(config_.reliability.breaker));
  }
  // Observability wiring (docs/observability.md).  Env overrides apply
  // on top of the configured knobs, and the effective values are stored
  // back so config().obs tells the truth.
  config_.obs.trace = obs::trace_config_from_env(config_.obs.trace);
  obs::TraceRecorder::instance().configure(config_.obs.trace);
  obs::StageProfiler::instance().set_enabled(
      obs::profile_from_env(config_.obs.profile_stages));
  c_submitted_ = registry_.counter("coastal_serve_submitted_total",
                                   "Requests accepted by submit()");
  c_served_ = registry_.counter("coastal_serve_served_total",
                                "Requests resolved with a result");
  c_rejected_ = registry_.counter("coastal_serve_rejected_total",
                                  "Requests refused by queue backpressure");
  c_fallbacks_ = registry_.counter(
      "coastal_serve_fallbacks_total",
      "Requests whose frames came from the numerical fallback");
  c_batches_ = registry_.counter("coastal_serve_batches_total",
                                 "Coalesced forwards executed");
  c_coalesced_ = registry_.counter(
      "coastal_serve_coalesced_total",
      "Requests served by sharing an identical batch entry");
  c_failed_ = registry_.counter("coastal_serve_failed_total",
                                "Requests resolved with a typed error");
  c_invalid_ = registry_.counter("coastal_serve_invalid_total",
                                 "NaN/Inf windows refused at submit()");
  c_deadline_ = registry_.counter("coastal_serve_deadline_expired_total",
                                  "Requests failed kDeadlineExceeded");
  c_retries_ = registry_.counter("coastal_serve_retries_total",
                                 "Forward retry attempts performed");
  c_degraded_ = registry_.counter(
      "coastal_serve_degraded_total",
      "Requests served in breaker-degraded (numerical) mode");
  c_worker_lost_ = registry_.counter(
      "coastal_serve_worker_lost_total",
      "In-flight requests failed by the watchdog");
  c_worker_restarts_ = registry_.counter("coastal_serve_worker_restarts_total",
                                         "Replacement workers spawned");
  h_latency_ = registry_.histogram(
      "coastal_serve_latency_us",
      "End-to-end request latency in microseconds",
      obs::HistogramSpec::latency_us());
  h_batch_ = registry_.histogram(
      "coastal_serve_batch_size",
      "Distinct episodes per coalesced forward",
      obs::HistogramSpec::linear(ServerStatsSnapshot::kBatchHistBuckets, 1.0,
                                 1.0));
  registry_.gauge_fn("coastal_serve_queue_depth",
                     "Requests currently queued",
                     [this] { return static_cast<double>(queue_.depth()); });
  // Snapshot-time collectors: breaker state, fault-site totals, and the
  // stage profiler ride along in every snapshot without owning cells in
  // this registry.
  registry_.collector([this](obs::RegistrySnapshot& out) {
    uint64_t trips = 0;
    int open = 0;
    for (const auto& b : breakers_) {
      trips += b->trips();
      if (b->open()) ++open;
    }
    out.counters.push_back({"coastal_serve_breaker_trips_total",
                            "Closed->open breaker transitions, all slots",
                            "", "", static_cast<int64_t>(trips)});
    out.gauges.push_back({"coastal_serve_breaker_open_slots",
                          "Slots currently open or half-open", "", "",
                          static_cast<double>(open)});
    for (const auto& [site, st] :
         util::FaultInjector::instance().cumulative_stats()) {
      out.counters.push_back({"coastal_fault_hits_total",
                              "Armed fault-point evaluations since start",
                              "site", site, static_cast<int64_t>(st.hits)});
      out.counters.push_back({"coastal_fault_fires_total",
                              "Fault-point fires since start", "site", site,
                              static_cast<int64_t>(st.fires)});
      if (st.released > 0) {
        out.counters.push_back(
            {"coastal_fault_hang_releases_total",
             "Parked hang threads woken by release_hangs()/clear()", "site",
             site, static_cast<int64_t>(st.released)});
      }
    }
    obs::StageProfiler::instance().collect(out);
  });
  const int nworkers = std::max(1, config_.workers);
  {
    std::lock_guard<std::mutex> lock(workers_mutex_);
    restarts_left_ = config_.reliability.watchdog.max_restarts;
    workers_.reserve(static_cast<size_t>(nworkers));
    for (int i = 0; i < nworkers; ++i) spawn_worker_locked();
  }
  if (config_.reliability.watchdog.hang_timeout_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

ForecastServer::~ForecastServer() { shutdown(); }

ForecastServer::WorkerState* ForecastServer::spawn_worker_locked() {
  workers_.push_back(std::make_unique<WorkerState>());
  WorkerState* state = workers_.back().get();
  state->thread = std::thread([this, state] { worker_loop(state); });
  return state;
}

void ForecastServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.close();
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // Workers parked by an injected hang only exit once released, so keep
  // releasing until every worker_loop returns — a chaos run (or a test
  // that forgot to clear its schedule) always terminates.
  for (;;) {
    bool all_exited = true;
    {
      std::lock_guard<std::mutex> lock(workers_mutex_);
      for (const auto& w : workers_) {
        if (!w->exited.load(std::memory_order_acquire)) {
          all_exited = false;
          break;
        }
      }
    }
    if (all_exited) break;
    util::FaultInjector::instance().release_hangs();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(workers_mutex_);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

std::optional<std::future<ForecastResult>> ForecastServer::submit(
    ForecastRequest request) {
  COASTAL_CHECK_MSG(request.model_id >= 0 &&
                        request.model_id < static_cast<int>(models_.size()),
                    "bad model_id " << request.model_id);
  const auto& spec = models_[static_cast<size_t>(request.model_id)].spec;
  COASTAL_CHECK_MSG(
      request.window.size() > static_cast<size_t>(spec.T) &&
          (request.window.size() - 1) % static_cast<size_t>(spec.T) == 0,
      "request needs e*T+1 frames (T = " << spec.T << "), got "
                                         << request.window.size());
  for (const auto& f : request.window) {
    COASTAL_CHECK_MSG(f.nx == spec.src_nx && f.ny == spec.src_ny &&
                          f.nz == spec.src_nz,
                      "request frame dims (" << f.nx << "," << f.ny << ","
                                             << f.nz
                                             << ") do not match the spec");
  }
  // Admission-time screening: a NaN/Inf initial condition can only burn a
  // forward and fail verification later, so refuse it with a typed error
  // now.  Shape violations above stay hard CHECK failures — they are
  // caller bugs, not data quality.
  for (size_t t = 0; t < request.window.size(); ++t) {
    if (!fields_finite(request.window[t])) {
      c_invalid_->inc();
      std::promise<ForecastResult> p;
      p.set_exception(typed_error(
          ForecastErrorCode::kInvalidInput,
          "non-finite values in window frame " + std::to_string(t)));
      return p.get_future();
    }
  }

  PendingRequest pending;
  pending.enqueued = clock::now();
  if (request.timeout_us > 0) {
    pending.deadline =
        pending.enqueued + std::chrono::microseconds(request.timeout_us);
  }
  // Trace admission: one relaxed load when tracing is off, a sampled id
  // draw when on.  The id rides the request through the pipeline.
  request.trace.id = obs::TraceRecorder::instance().begin_trace();
  pending.request = std::move(request);
  auto future = pending.promise.get_future();
  // Count the submission *before* it can resolve (an admission hit below,
  // or a fast worker popping it while this thread is still here): a
  // stats() snapshot must never show served > submitted.
  {
    obs::Registry::Group g(registry_);
    c_submitted_->inc();
  }
  const auto slot = static_cast<size_t>(pending.request.model_id);
  // Hash the window once; the worker's probe and the post-verify insert
  // reuse the key.  An exact hit resolves right here — no queue slot, no
  // collection window, no worker — unless the queue is closed (the push
  // below rejects) or the slot's breaker is not closed (that traffic must
  // reach a worker, which bypasses the cache).
  const bool caching = cache_->policy().enabled;
  if (caching) {
    pending.cache_key = ForecastCache::key(pending.request.model_id,
                                           models_[slot].version, spec,
                                           pending.request.window);
  }
  if (caching && !queue_.closed() && !breakers_[slot]->open()) {
    ForecastCache::Probe hit = [&] {
      obs::ScopedStage stage(obs::Stage::kCacheProbe);
      return cache_->probe(pending.cache_key, pending.request.window,
                           /*exact_only=*/true);
    }();
    if (hit.hit) {
      const int64_t t0 = obs::to_us(pending.enqueued);
      trace_span(pending.request.trace.id, "queue", t0, t0);
      trace_span(pending.request.trace.id, "triage", t0, obs::now_us(),
                 obs::kCacheHit);
      // No forward span, by construction: the cache served this one.
      deliver(pending, pending.promise, hit_result(std::move(hit), 1),
              pending.enqueued, obs::kCacheHit);
      return future;
    }
  }
  const bool accepted =
      queue_.push(pending, config_.overflow == ServerConfig::Overflow::kBlock);
  if (!accepted) {
    obs::Registry::Group g(registry_);
    c_submitted_->add(-1);
    c_rejected_->inc();
    return std::nullopt;
  }
  return future;
}

void ForecastServer::worker_loop(WorkerState* state) {
  for (;;) {
    if (state->retired.load(std::memory_order_acquire)) break;
    std::vector<PendingRequest> popped = queue_.pop_batch(config_.batch);
    if (popped.empty()) break;  // closed and drained
    auto inflight = std::make_shared<InFlightBatch>();
    inflight->reqs = std::move(popped);
    inflight->resolved.assign(inflight->reqs.size(), 0);
    {
      std::lock_guard<std::mutex> lock(state->m);
      state->inflight = inflight;
    }
    state->busy.store(true, std::memory_order_release);
    state->beat.fetch_add(1, std::memory_order_relaxed);
    std::exception_ptr failure;
    try {
      serve_batch(state, inflight);
    } catch (...) {
      failure = as_model_failure(std::current_exception());
    }
    // A probe batch that ended without settling (an escaped exception, or
    // a retirement the watchdog raced) failed.
    report_probe(*inflight, false);
    // A worker never dies with unresolved promises: anything that escaped
    // serve_batch fails the rest of its batch (typed), and so, defensively,
    // does any request serve_batch left pending (clients would wait
    // forever).
    for (size_t i = 0; i < inflight->reqs.size(); ++i) {
      std::promise<ForecastResult>* p = claim(*inflight, i);
      if (p == nullptr) continue;
      if (!failure) {
        failure = typed_error(ForecastErrorCode::kModelFailure,
                              "request left unresolved by serve_batch");
      }
      resolve_error(inflight->reqs[i], *p, failure, nullptr);
    }
    state->busy.store(false, std::memory_order_release);
    state->beat.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(state->m);
      state->inflight.reset();
    }
  }
  state->exited.store(true, std::memory_order_release);
}

/// One distinct episode chain of a popped batch: its requests (those
/// with owner[i] == its index), what the cache probe found, and what
/// compute and settle make of it.
struct ForecastServer::Entry {
  size_t exemplar = 0;  ///< the entry's first request in the batch
  int sharers = 0;      ///< requests collapsed into this entry
  ForecastCache::Probe probe;
  bool done = false;   ///< resolved (hit, expired, failed): out of the batch
  int start = 0;       ///< first episode to compute (cached prefix length)
  int batch_size = 0;  ///< entries stacked in the last forward it rode
  bool retried = false;  ///< a forward it rode needed another attempt
  std::vector<data::CenterFields> frames;  ///< cached prefix + decoded steps
  data::CenterFields ic;  ///< normalized initial condition of the next step
  /// Decode or forward failure: settle takes the numerical route.
  std::exception_ptr error;
  bool forward_failed = false;  ///< `error` is a forward the breaker counted
};

struct ForecastServer::Batch {
  WorkerState* state;
  InFlightBatch& inflight;
  clock::time_point assembled;
  size_t model;  ///< slot index
  int episodes;  ///< uniform: pop_batch keys on (model_id, window length)
  CircuitBreaker::Mode mode = CircuitBreaker::Mode::kNormal;
  bool use_cache = false;
  std::vector<size_t> owner;  ///< request -> entry; SIZE_MAX if expired
  std::vector<Entry> entries{};
  int probe_failures = 0;     ///< half-open probe: entries that failed
  bool forward_ran = false;  ///< some step's forward completed

  /// Has every sharer of entry `u` passed its deadline at `now`?
  bool expired(size_t u, clock::time_point now) const {
    for (size_t i = 0; i < owner.size(); ++i) {
      const PendingRequest& req = inflight.reqs[i];
      if (owner[i] == u && !(has_deadline(req) && now >= req.deadline)) {
        return false;
      }
    }
    return true;
  }
};

void ForecastServer::serve_batch(
    WorkerState* state, const std::shared_ptr<InFlightBatch>& inflight) {
  // The canonical hung-worker injection point: before any lock is held,
  // so a parked worker wedges only itself (and its batch).
  COASTAL_FAULT_POINT("serve.worker");
  if (state->retired.load(std::memory_order_acquire)) return;
  const ForecastRequest& front = inflight->reqs.front().request;
  const auto model = static_cast<size_t>(front.model_id);
  Batch b{.state = state,
          .inflight = *inflight,
          .assembled = clock::now(),
          .model = model,
          .episodes = static_cast<int>(front.window.size() - 1) /
                      models_[model].spec.T,
          .owner = std::vector<size_t>(inflight->reqs.size(), SIZE_MAX)};
  if (!triage(b) || !compute(b)) return;
  settle(b);
}

bool ForecastServer::triage(Batch& b) {
  auto& reqs = b.inflight.reqs;
  const int64_t us_assembled = obs::to_us(b.assembled);
  const bool profiling = obs::StageProfiler::instance().enabled();
  int64_t owned = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    // Queue-wait telemetry, per request: the span belongs to the
    // request's trace, the histogram sample to the queue-stage profile.
    const int64_t q_us = us_assembled - obs::to_us(reqs[i].enqueued);
    if (profiling) {
      obs::StageProfiler::instance().record(
          obs::Stage::kQueue, static_cast<double>(std::max<int64_t>(q_us, 0)));
    }
    trace_span(reqs[i].request.trace.id, "queue", us_assembled - q_us,
               us_assembled);
    // Requests already expired at batch assembly fail now, before any
    // work is spent on them.
    if (has_deadline(reqs[i]) && b.assembled >= reqs[i].deadline) {
      if (auto* p = claim(b.inflight, i)) {
        resolve_error(reqs[i], *p,
                      typed_error(ForecastErrorCode::kDeadlineExceeded,
                                  "expired before service began"),
                      c_deadline_);
      }
      continue;
    }
    // Identical-episode coalescing: bitwise-equal windows share an entry.
    size_t u = b.entries.size();
    for (size_t j = 0; j < u; ++j) {
      if (same_window(reqs[b.entries[j].exemplar], reqs[i])) u = j;
    }
    if (u == b.entries.size()) b.entries.emplace_back().exemplar = i;
    b.owner[i] = u;
    ++b.entries[u].sharers;
    ++owned;
  }
  if (b.entries.empty()) return false;

  // Circuit-breaker admission: an open slot serves the verified numerical
  // answer directly (degraded mode); half-open lets one probe batch try
  // the surrogate again.
  b.mode = breakers_[b.model]->admit();
  if (b.mode == CircuitBreaker::Mode::kProbe) {
    std::lock_guard<std::mutex> lock(b.inflight.m);
    b.inflight.probe_slot = static_cast<int>(b.model);
  }
  if (b.mode == CircuitBreaker::Mode::kDegraded && !fallback_) {
    const auto e = typed_error(ForecastErrorCode::kCircuitOpen,
                               "slot degraded and no fallback configured");
    for (size_t u = 0; u < b.entries.size(); ++u) fan_out(b, u, {}, e);
    return false;
  }
  {
    obs::Registry::Group g(registry_);
    c_coalesced_->add(owned - static_cast<int64_t>(b.entries.size()));
  }

  // Content-addressed cache probe (docs/caching.md), after breaker
  // admission so a non-normal slot bypasses the cache entirely: degraded
  // traffic must take the numerical route, and a half-open probe batch
  // exists precisely to exercise the surrogate.
  b.use_cache = cache_->policy().enabled &&
                b.mode == CircuitBreaker::Mode::kNormal;
  if (b.use_cache) {
    obs::ScopedStage stage(obs::Stage::kCacheProbe);
    for (Entry& en : b.entries) {
      const PendingRequest& ex = reqs[en.exemplar];
      en.probe = cache_->probe(ex.cache_key, ex.request.window);
    }
  }
  // Triage spans close here: queue pop -> breaker admission -> cache
  // probe, tagged with what the probe found for this request's entry.
  const int64_t us_triaged = obs::now_us();
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (b.owner[i] == SIZE_MAX) continue;
    const ForecastCache::Probe& p = b.entries[b.owner[i]].probe;
    uint32_t flags = p.hit ? obs::kCacheHit
                           : (p.prefix ? obs::kPrefixResume : 0u);
    if (b.mode == CircuitBreaker::Mode::kDegraded) flags |= obs::kDegraded;
    trace_span(reqs[i].request.trace.id, "triage", us_assembled, us_triaged,
               flags);
  }
  // Exact hits — an identical window was inserted while this one queued —
  // deliver with no forward and no re-verification: by bitwise rollout
  // determinism the stored frames ARE what a recompute would produce, and
  // the stored verdict already certified them.  A prefix hit starts its
  // chain at the first uncached episode, seeded by the cached final frame
  // exactly as rollout()'s autoregressive hand-off would.
  int live = 0;
  for (size_t u = 0; u < b.entries.size(); ++u) {
    Entry& en = b.entries[u];
    if (en.probe.hit) {
      fan_out(b, u, hit_result(std::move(en.probe), en.sharers), nullptr,
              nullptr, obs::kCacheHit);
      continue;
    }
    ++live;
    if (en.probe.prefix) {
      en.start = en.probe.episodes;
      en.frames = std::move(en.probe.frames);
      en.ic = data::normalized_copy(en.frames.back(), norm_);
    }
  }
  for (Entry& en : b.entries) en.batch_size = live;
  return live > 0;
}

bool ForecastServer::compute(Batch& b) {
  if (b.mode == CircuitBreaker::Mode::kDegraded) return true;
  // One stacked forward per episode step over every live entry that has
  // started: a chain is sequential (episode e's initial condition is
  // episode e-1's last frame), but distinct chains — and a prefix-resumed
  // chain joining at its first uncached episode — stack within a step.
  std::vector<size_t> all(b.entries.size()), riders;
  std::iota(all.begin(), all.end(), size_t{0});
  for (int e = 0; e < b.episodes; ++e) {
    riders.clear();
    for (size_t u : all) {
      const Entry& en = b.entries[u];
      if (!en.done && !en.error && en.start <= e) riders.push_back(u);
    }
    if (riders.empty()) continue;
    if (!run_step(b, e, riders)) return false;
    // Between steps: an entry whose every sharer has expired leaves the
    // batch (it never reaches the fallback).  After the last step, settle
    // still verifies and caches it; deliver() then fails its requests.
    if (e + 1 < b.episodes) expire(b, all, "expired during the forecast");
  }
  return true;
}

bool ForecastServer::run_step(Batch& b, int e,
                              std::span<const size_t> riders) {
  const ModelSlot& slot = models_[b.model];
  const data::SampleSpec& spec = slot.spec;
  const auto B = static_cast<int64_t>(riders.size());
  // Everything tensor-shaped in this step — the stacked input, the
  // forward activations, the batched output — bump-allocates from the
  // arena and is released in bulk at scope exit, so a warmed-up server
  // allocates nothing here.  Only the decoded CenterFields escape.
  tensor::ArenaScope arena;
  tensor::NoGradGuard ng;
  std::exception_ptr error;
  tensor::Tensor vol, surf;
  // Each rider contributes its step-e window; past its first episode,
  // the previous step's last frame replaces frame 0.
  const int64_t us_pack0 = obs::now_us();
  try {
    obs::ScopedStage stage(obs::Stage::kPack);
    std::vector<std::span<const data::CenterFields>> windows;
    std::vector<const data::CenterFields*> ics;
    const auto T = static_cast<size_t>(spec.T);
    for (size_t u : riders) {
      Entry& en = b.entries[u];
      windows.push_back(std::span<const data::CenterFields>(
                            b.inflight.reqs[en.exemplar].request.window)
                            .subspan(static_cast<size_t>(e) * T, T + 1));
      ics.push_back(e > 0 ? &en.ic : nullptr);
      en.batch_size = static_cast<int>(B);
    }
    data::BatchedInput in = data::make_batched_input(spec, windows, ics);
    vol = std::move(in.volume);
    surf = std::move(in.surface);
  } catch (...) {
    error = std::current_exception();  // no forward ran: a failed step
  }
  const bool packed = error == nullptr;
  const int64_t us_pack1 = obs::now_us();
  b.state->beat.fetch_add(1, std::memory_order_relaxed);

  // The stacked forward, with bounded deterministic retry for transient
  // failures; between attempts, entries whose sharers all expired leave.
  const RetryPolicy& retry = config_.reliability.retry;
  const int max_attempts = std::max(1, retry.max_attempts);
  int64_t backoff_us = std::max<int64_t>(0, retry.backoff_us);
  int retries = 0;
  size_t alive = riders.size();
  core::SurrogateOutput out;
  bool ok = false;
  const int64_t us_fwd0 = obs::now_us();
  for (int attempt = 1; packed && !ok && alive > 0; ++attempt) {
    try {
      COASTAL_FAULT_POINT("serve.forward");
      if (b.state->retired.load(std::memory_order_acquire)) return false;
      // Grouped BatchNorm statistics: each stacked entry is normalized
      // exactly as it would be served alone, which is what makes the
      // demuxed results bitwise-serial (see nn::BatchStatScope).
      nn::BatchStatScope stat_groups(B);
      out = slot.model->forward(vol, surf);
      ok = true;
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      if (!is_transient(err) || attempt >= max_attempts) {
        error = err;
        break;
      }
      alive = expire(b, riders, "expired during forward retries");
      if (alive == 0) break;
      c_retries_->inc();
      ++retries;
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us *= 2;
      b.state->beat.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const int64_t us_fwd1 = obs::now_us();
  if (packed && obs::StageProfiler::instance().enabled()) {
    obs::StageProfiler::instance().record(
        obs::Stage::kForward, static_cast<double>(us_fwd1 - us_fwd0));
  }
  // Step spans: every traced request still riding shares the step's one
  // pack + forward interval.
  const uint32_t fflags = (retries > 0 ? obs::kFaultRetry : 0u) |
                          (error ? obs::kError : 0u);
  int failed = 0;
  for (size_t u : riders) {
    Entry& en = b.entries[u];
    if (en.done) continue;
    en.retried |= retries > 0;
    if (error) {
      en.error = error;
      en.forward_failed = true;
      ++failed;
    }
    for (size_t i = 0; packed && i < b.owner.size(); ++i) {
      const uint64_t tid = b.inflight.reqs[i].request.trace.id;
      if (b.owner[i] != u || tid == 0) continue;
      trace_span(tid, "pack", us_pack0, us_pack1);
      trace_span(tid, "forward", us_fwd0, us_fwd1, fflags,
                 error_code_of(error), B);
    }
  }
  if (error) {
    // The failed forward's entries take the numerical route in settle (or
    // fail); the breaker counts exactly them, never a cache hit.
    if (b.mode == CircuitBreaker::Mode::kProbe) b.probe_failures += failed;
    else breakers_[b.model]->record_failures(failed);
    return true;
  }
  if (!ok) return true;  // every rider expired between attempts
  b.forward_ran = true;
  {
    obs::Registry::Group g(registry_);
    c_batches_->inc();
    h_batch_->observe(static_cast<double>(B));
  }
  b.state->beat.fetch_add(1, std::memory_order_relaxed);
  // Per-entry decode: one entry's failure (or injected fault) must not
  // fail sharers of healthy entries — the blast radius stays one entry.
  obs::ScopedStage decode_stage(obs::Stage::kDecode);
  for (size_t k = 0; k < riders.size(); ++k) {
    Entry& en = b.entries[riders[k]];
    if (en.done) continue;
    try {
      const util::FaultAction fa = COASTAL_FAULT_POINT("rollout.step");
      auto frames = core::decode_prediction_entry(
          spec, out, static_cast<int64_t>(k), norm_);
      if (fa == util::FaultAction::kNan) core::poison_fields(frames.front());
      if (e + 1 < b.episodes) {
        en.ic = data::normalized_copy(frames.back(), norm_);
      }
      std::move(frames.begin(), frames.end(), std::back_inserter(en.frames));
    } catch (...) {
      en.error = std::current_exception();
    }
  }
  return true;
}

size_t ForecastServer::expire(Batch& b, std::span<const size_t> us,
                              const char* why) {
  const auto now = clock::now();
  size_t alive = 0;
  for (size_t u : us) {
    if (b.entries[u].done) continue;
    if (!b.expired(u, now)) {
      ++alive;
      continue;
    }
    fan_out(b, u, {}, typed_error(ForecastErrorCode::kDeadlineExceeded, why),
            c_deadline_);
  }
  return alive;
}

void ForecastServer::settle(Batch& b) {
  const int steps = models_[b.model].spec.T * b.episodes;
  CircuitBreaker& breaker = *breakers_[b.model];
  const bool probe = b.mode == CircuitBreaker::Mode::kProbe;
  const bool degraded = b.mode == CircuitBreaker::Mode::kDegraded;
  // One breaker outcome per entry that went through the surrogate; a
  // verification fallback counts as a failure, so a surrogate producing
  // chronic garbage trips into degraded mode instead of burning forwards.
  auto note = [&](bool success) {
    if (!probe) return breaker.record(success);
    if (!success) ++b.probe_failures;
  };
  // Per entry, outside the step arena: verify or fall back, fill the
  // cache, fan out.
  for (size_t u = 0; u < b.entries.size(); ++u) {
    Entry& en = b.entries[u];
    if (en.done) continue;
    b.state->beat.fetch_add(1, std::memory_order_relaxed);
    const PendingRequest& ex = b.inflight.reqs[en.exemplar];
    const bool numerical = degraded || en.error != nullptr;
    if (en.error && !en.forward_failed) note(false);
    // Every sharer gone: no numerical rerun is spent on it.  A surrogate
    // result is still verified and cached (a retry of the window is then
    // an admission hit), and deliver() fails its requests.
    const bool late = b.expired(u, clock::now());
    if (numerical && (!fallback_ || late)) {
      fan_out(b, u, {},
              fallback_ ? typed_error(ForecastErrorCode::kDeadlineExceeded,
                                      "expired during the forecast")
                        : as_model_failure(en.error),
              fallback_ ? c_deadline_ : nullptr);
      continue;
    }
    ForecastResult r;
    r.batch_size = en.batch_size;
    r.sharers = en.sharers;
    r.degraded = degraded;
    const int64_t us0 = obs::now_us();
    bool rejected = false;  ///< the verdict failed where a fallback exists
    try {
      // current.time is the request's own start (copied from the IC
      // frame), anchoring any numerical restart's tidal phase.
      const data::CenterFields current =
          data::denormalized_copy(ex.request.window.front(), norm_);
      if (numerical) {
        // Degraded / failed entry: the whole chain from the numerical
        // model — verified by construction, and check_sequence confirms.
        obs::ScopedStage stage(obs::Stage::kFallback);
        r.frames = core::numerical_episode(
            fallback_->grid, fallback_->tides, fallback_->params, current,
            current.time, config_.snapshot_dt, steps);
        r.verdict = verifier_->check_sequence(current, r.frames,
                                              config_.snapshot_dt);
        r.verified = r.fallback = true;
      } else {
        r.frames = std::move(en.frames);
        r.resumed_frames = en.start * models_[b.model].spec.T;
        if (verifier_) {
          obs::ScopedStage stage(obs::Stage::kVerify);
          const core::EpisodeOutcome o = core::verify_or_fallback(
              r.frames, current, *verifier_,
              fallback_ && !late ? &*fallback_ : nullptr, current.time,
              config_.snapshot_dt, en.start > 0 ? &en.probe.verdict : nullptr,
              static_cast<size_t>(r.resumed_frames));
          r.verdict = o.verdict;
          r.verified = true;
          r.fallback = o.fallback;
          if (o.fallback) r.resumed_frames = 0;  // nothing cached survived
          rejected = fallback_ && !o.verdict.pass;
        }
        note(!rejected);
      }
    } catch (...) {
      fan_out(b, u, {}, std::current_exception());
      continue;
    }
    // Post-verification cache fill: only the healthy surrogate route in
    // normal breaker mode is admitted — degraded, fallback, and errored
    // results never enter the cache (which also finite-scans unverified
    // payloads).  Outside any arena, as insert() requires.
    if (b.use_cache && !numerical && !rejected) {
      cache_->insert(ex.cache_key, ex.request.window, r.frames, r.verdict,
                     r.verified);
    }
    uint32_t flags = 0;
    if (r.fallback) flags |= obs::kFallback;
    if (degraded) flags |= obs::kDegraded;
    if (r.resumed_frames > 0) flags |= obs::kPrefixResume;
    if (en.retried) flags |= obs::kFaultRetry;
    if (r.verified && !r.verdict.pass) flags |= obs::kVerifyFailed;
    // The verify/fallback interval; a surrogate verdict that failed and
    // was recomputed still tags the verify span.
    const obs::TraceSpan stage{
        .start_us = us0,
        .end_us = obs::now_us(),
        .stage = numerical ? "fallback" : "verify",
        .flags = flags | (!numerical && r.fallback ? obs::kVerifyFailed : 0u)};
    fan_out(b, u, std::move(r), nullptr, nullptr, flags,
            numerical || verifier_ ? &stage : nullptr);
  }
  // Every probe batch reports, also when all its entries expired: one
  // whose forward never completed (failed, or every rider expired between
  // failed attempts) reopens the circuit.
  if (probe) report_probe(b.inflight, b.forward_ran && b.probe_failures == 0);
}

void ForecastServer::report_probe(InFlightBatch& b, bool success) {
  int slot;
  {
    std::lock_guard<std::mutex> lock(b.m);
    slot = std::exchange(b.probe_slot, -1);
  }
  if (slot >= 0) breakers_[static_cast<size_t>(slot)]->probe_result(success);
}

void ForecastServer::fan_out(Batch& b, size_t u, ForecastResult result,
                             std::exception_ptr error,
                             obs::Counter* extra_counter, uint32_t flags,
                             const obs::TraceSpan* stage) {
  Entry& en = b.entries[u];
  en.done = true;
  int remaining = en.sharers;
  for (size_t i = 0; i < b.owner.size() && remaining > 0; ++i) {
    if (b.owner[i] != u) continue;
    const bool last = --remaining == 0;
    std::promise<ForecastResult>* p = claim(b.inflight, i);
    if (p == nullptr) continue;
    const PendingRequest& req = b.inflight.reqs[i];
    if (error) {
      resolve_error(req, *p, error, extra_counter);
    } else {
      deliver(req, *p, last ? std::move(result) : result, b.assembled, flags,
              stage);
    }
  }
}

void ForecastServer::watchdog_loop() {
  struct Seen {
    uint64_t beat = 0;
    clock::time_point since{};
  };
  std::unordered_map<WorkerState*, Seen> seen;
  const auto timeout =
      std::chrono::milliseconds(config_.reliability.watchdog.hang_timeout_ms);
  const auto poll = std::chrono::milliseconds(
      std::max<int64_t>(1, config_.reliability.watchdog.poll_ms));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mutex_);
      watchdog_cv_.wait_for(lock, poll, [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    std::vector<WorkerState*> active;
    {
      std::lock_guard<std::mutex> lock(workers_mutex_);
      for (const auto& w : workers_) {
        if (!w->retired.load(std::memory_order_acquire) &&
            !w->exited.load(std::memory_order_acquire)) {
          active.push_back(w.get());
        }
      }
    }
    const auto now = clock::now();
    for (WorkerState* w : active) {
      if (!w->busy.load(std::memory_order_acquire)) {
        seen.erase(w);
        continue;
      }
      const uint64_t beat = w->beat.load(std::memory_order_acquire);
      auto it = seen.find(w);
      if (it == seen.end() || it->second.beat != beat) {
        seen[w] = {beat, now};
        continue;
      }
      if (now - it->second.since < timeout) continue;
      // Hung: retire the worker, fail its unresolved in-flight promises,
      // and spawn a replacement — the queue and its pending work carry
      // over; only the wedged thread is written off.
      w->retired.store(true, std::memory_order_release);
      std::shared_ptr<InFlightBatch> inflight;
      {
        std::lock_guard<std::mutex> lock(w->m);
        inflight = w->inflight;
      }
      // Take over the unresolved promises first (abandoning the batch so
      // the hung worker, should it ever resume, cannot double-resolve),
      // then restart and count, and only then fail them: a client that
      // observes kWorkerLost also observes the restart and the stats.
      std::vector<size_t> orphans;
      if (inflight) {
        std::lock_guard<std::mutex> lock(inflight->m);
        inflight->abandoned = true;
        for (size_t i = 0; i < inflight->reqs.size(); ++i) {
          if (inflight->resolved[i]) continue;
          inflight->resolved[i] = 1;
          orphans.push_back(i);
        }
      }
      // A retired half-open probe never reaches settle: it failed, so the
      // circuit reopens and a later cooldown admits a fresh probe.
      if (inflight) report_probe(*inflight, false);
      {
        std::lock_guard<std::mutex> lock(workers_mutex_);
        if (restarts_left_ > 0) {
          --restarts_left_;
          spawn_worker_locked();
          c_worker_restarts_->inc();
        }
      }
      for (size_t i : orphans) {
        PendingRequest& req = inflight->reqs[i];
        resolve_error(req, req.promise,
                      typed_error(ForecastErrorCode::kWorkerLost,
                                  "serving worker hung past the heartbeat "
                                  "timeout"),
                      c_worker_lost_);
      }
      seen.erase(w);
    }
  }
}

std::promise<ForecastResult>* ForecastServer::claim(InFlightBatch& b,
                                                    size_t i) {
  std::lock_guard<std::mutex> lock(b.m);
  if (b.abandoned || b.resolved[i]) return nullptr;
  b.resolved[i] = 1;
  // Once claimed nobody else touches this promise (resolved[i] gates the
  // watchdog and every worker path), so the caller may resolve it after
  // dropping b.m.
  return &b.reqs[i].promise;
}

void ForecastServer::resolve_error(const PendingRequest& req,
                                   std::promise<ForecastResult>& p,
                                   std::exception_ptr error,
                                   obs::Counter* extra_counter) {
  {
    obs::Registry::Group g(registry_);
    c_failed_->inc();
    if (extra_counter != nullptr) extra_counter->inc();
  }
  const uint64_t tid = req.request.trace.id;
  if (tid != 0 && obs::TraceRecorder::instance().enabled()) {
    const int64_t t1 = obs::now_us();
    const int code = error_code_of(error);
    uint32_t flags = obs::kError;
    if (code == static_cast<int>(ForecastErrorCode::kWorkerLost)) {
      flags |= obs::kWorkerLost;
    }
    trace_span(tid, "resolve", t1, t1, flags, code);
    trace_span(tid, "request", obs::to_us(req.enqueued), t1, flags, code);
  }
  p.set_exception(std::move(error));
}

void ForecastServer::deliver(const PendingRequest& req,
                             std::promise<ForecastResult>& p,
                             ForecastResult result,
                             clock::time_point assembled, uint32_t flags,
                             const obs::TraceSpan* stage) {
  const auto t_done = clock::now();
  if (has_deadline(req) && t_done >= req.deadline) {
    // The result exists but the client stopped waiting: a deadline is a
    // promise about *delivery*, not computation.
    resolve_error(req, p,
                  typed_error(ForecastErrorCode::kDeadlineExceeded,
                              "expired before delivery"),
                  c_deadline_);
    return;
  }
  result.queue_seconds = seconds_between(req.enqueued, assembled);
  result.service_seconds = seconds_between(assembled, t_done);
  note_serve_span(first_serve_us_, last_serve_us_, assembled, t_done);
  {
    obs::Registry::Group g(registry_);
    h_latency_->observe(seconds_between(req.enqueued, t_done) * 1e6);
    c_served_->inc();
    if (result.fallback) c_fallbacks_->inc();
    if (result.degraded) c_degraded_->inc();
  }
  const uint64_t tid = req.request.trace.id;
  if (tid != 0) {
    const int64_t td = obs::to_us(t_done);
    if (stage != nullptr) {
      trace_span(tid, stage->stage, stage->start_us, stage->end_us,
                 stage->flags);
    }
    trace_span(tid, "resolve", td, td, flags);
    trace_span(tid, "request", obs::to_us(req.enqueued), td, flags);
  }
  p.set_value(std::move(result));
}

ServerStatsSnapshot ForecastServer::stats() const {
  ServerStatsSnapshot s;
  {
    // The exclusive side of every writer's Registry::Group: no stat
    // group (claim -> count -> resolve) is ever observed half-committed,
    // which also makes the claim/stats ordering atomic wrt this reader.
    const auto lock = registry_.exclusive();
    s.submitted = static_cast<uint64_t>(c_submitted_->value());
    s.served = static_cast<uint64_t>(c_served_->value());
    s.rejected = static_cast<uint64_t>(c_rejected_->value());
    s.fallbacks = static_cast<uint64_t>(c_fallbacks_->value());
    s.batches = static_cast<uint64_t>(c_batches_->value());
    s.coalesced = static_cast<uint64_t>(c_coalesced_->value());
    s.failed = static_cast<uint64_t>(c_failed_->value());
    s.invalid = static_cast<uint64_t>(c_invalid_->value());
    s.deadline_expired = static_cast<uint64_t>(c_deadline_->value());
    s.retries = static_cast<uint64_t>(c_retries_->value());
    s.degraded = static_cast<uint64_t>(c_degraded_->value());
    s.worker_lost = static_cast<uint64_t>(c_worker_lost_->value());
    s.worker_restarts = static_cast<uint64_t>(c_worker_restarts_->value());
    const obs::HistogramSnapshot bh = h_batch_->snapshot();
    for (int i = 0; i < ServerStatsSnapshot::kBatchHistBuckets; ++i) {
      s.batch_hist[static_cast<size_t>(i)] = bh.counts[static_cast<size_t>(i)];
    }
    s.queue_depth = queue_.depth();
    const obs::HistogramSnapshot lat = h_latency_->snapshot();
    s.p50_ms = lat.percentile(0.50) * 1e-3;
    s.p95_ms = lat.percentile(0.95) * 1e-3;
    s.p99_ms = lat.percentile(0.99) * 1e-3;
    if (s.batches > 0) {
      s.mean_batch =
          static_cast<double>(s.served) / static_cast<double>(s.batches);
    }
    const int64_t first = first_serve_us_.load(std::memory_order_acquire);
    const int64_t last = last_serve_us_.load(std::memory_order_acquire);
    if (s.served > 0 && first >= 0 && last > first) {
      s.throughput_rps = static_cast<double>(s.served) /
                         (static_cast<double>(last - first) * 1e-6);
    }
  }
  for (const auto& b : breakers_) {
    s.breaker_trips += b->trips();
    if (b->open()) ++s.breaker_open_slots;
  }
  const CacheStatsSnapshot c = cache_->stats();
  s.cache_hits = c.hits;
  s.cache_prefix_hits = c.prefix_hits;
  s.cache_misses = c.misses;
  s.cache_inserts = c.inserts;
  s.cache_evictions = c.evictions;
  s.cache_bytes = c.bytes;
  s.cache_entries = c.entries;
  return s;
}

}  // namespace coastal::serve
