#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "core/decode.hpp"
#include "core/rollout.hpp"
#include "data/sample.hpp"
#include "nn/layers.hpp"
#include "obs/profile.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

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
  auto ok = [](const std::vector<float>& v) {
    for (float x : v) {
      if (!std::isfinite(x)) return false;
    }
    return true;
  };
  return ok(f.u) && ok(f.v) && ok(f.w) && ok(f.zeta);
}

bool has_deadline(const PendingRequest& p) {
  return p.deadline != clock::time_point{};
}

std::exception_ptr typed_error(ForecastErrorCode code,
                               const std::string& detail) {
  return std::make_exception_ptr(ForecastError(code, detail));
}

std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

/// Errors delivered to clients are always ForecastError; anything else is
/// wrapped as kModelFailure with the cause preserved in the message.
std::exception_ptr as_model_failure(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const ForecastError&) {
    return e;
  } catch (...) {
  }
  return typed_error(ForecastErrorCode::kModelFailure, describe(e));
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

/// Take a model slot's forward lock (one batch in flight per model, see
/// server.hpp).  With the watchdog on (hang_ms > 0) the wait is bounded,
/// so a replacement worker cannot wedge forever behind a hung predecessor
/// still holding the slot.
std::unique_lock<std::timed_mutex> lock_model(std::timed_mutex& m,
                                              int64_t hang_ms) {
  std::unique_lock<std::timed_mutex> lock(m, std::defer_lock);
  if (hang_ms <= 0) {
    lock.lock();
  } else if (!lock.try_lock_for(std::chrono::milliseconds(
                 std::max<int64_t>(1, hang_ms / 2)))) {
    throw ForecastError(ForecastErrorCode::kModelFailure,
                        "model slot lock timed out");
  }
  return lock;
}

/// NaN-poison the first frame of a decoded episode (the `rollout.step`
/// nan action) — every element, so wet cells are hit regardless of mask.
void poison_first_frame(std::vector<data::CenterFields>& frames) {
  if (frames.empty()) return;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto& f = frames.front();
  std::fill(f.u.begin(), f.u.end(), nan);
  std::fill(f.v.begin(), f.v.end(), nan);
  std::fill(f.w.begin(), f.w.end(), nan);
  std::fill(f.zeta.begin(), f.zeta.end(), nan);
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
  if (grid_ && config_.verify) {
    verifier_.emplace(*grid_, config_.threshold);
  }
  // Deployment knobs (COASTAL_CACHE*) override the configured policy; the
  // effective policy is stored back so config().cache tells the truth.
  config_.cache = cache_policy_from_env(config_.cache);
  cache_ = std::make_unique<ForecastCache>(config_.cache, &registry_);
  COASTAL_CHECK_MSG(!config_.fallback || (grid_ && config_.verify),
                    "the ROMS fallback requires a grid and verify=true");
  for (size_t i = 0; i < models_.size(); ++i) {
    model_mutexes_.push_back(std::make_unique<std::timed_mutex>());
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
  if (config_.kernel_threads > 0) {
    // Deployment-time kernel sizing: the pool and the kernel chunking
    // config move together so dispatch decisions never drift from the
    // workers actually available.
    par::ThreadPool::global().resize(
        static_cast<size_t>(config_.kernel_threads));
    tensor::kernels::config().num_threads = config_.kernel_threads;
  }
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
  if (config_.reliability.screen_inputs) {
    // Admission-time screening: a NaN/Inf initial condition can only burn
    // a forward and fail verification later, so refuse it with a typed
    // error now.  Shape violations above stay hard CHECK failures — they
    // are caller bugs, not data quality.
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
      deliver_hit(pending, pending.promise, hit, /*take_frames=*/true, 1,
                  pending.enqueued);
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
    try {
      serve_batch(state, inflight);
    } catch (...) {
      // A worker never dies with unresolved promises: anything that
      // escaped serve_batch fails the whole batch (typed).
      const std::exception_ptr e = as_model_failure(std::current_exception());
      for (size_t i = 0; i < inflight->reqs.size(); ++i) {
        deliver_error(*inflight, i, e);
      }
    }
    {
      // Defensive sweep: no request of a batch this worker still owns may
      // be left pending (clients would wait forever).
      std::lock_guard<std::mutex> lock(inflight->m);
      if (!inflight->abandoned) {
        for (size_t i = 0; i < inflight->reqs.size(); ++i) {
          if (!inflight->resolved[i]) {
            inflight->resolved[i] = 1;
            inflight->reqs[i].promise.set_exception(
                typed_error(ForecastErrorCode::kModelFailure,
                            "request left unresolved by serve_batch"));
          }
        }
      }
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

void ForecastServer::serve_batch(
    WorkerState* state, const std::shared_ptr<InFlightBatch>& inflight) {
  auto& batch = inflight->reqs;
  // The canonical hung-worker injection point: before any lock is held,
  // so a parked worker wedges only itself (and its batch).
  COASTAL_FAULT_POINT("serve.worker");
  if (state->retired.load(std::memory_order_acquire)) return;

  const auto t_assembled = clock::now();
  const int64_t us_assembled = obs::to_us(t_assembled);
  const bool profiling = obs::StageProfiler::instance().enabled();
  // Queue-wait telemetry, per request: the span belongs to the request's
  // trace, the histogram sample to the global queue-stage profile.
  for (size_t i = 0; i < batch.size(); ++i) {
    const int64_t q_us = us_assembled - obs::to_us(batch[i].enqueued);
    if (profiling) {
      obs::StageProfiler::instance().record(
          obs::Stage::kQueue, static_cast<double>(std::max<int64_t>(q_us, 0)));
    }
    trace_span(batch[i].request.trace.id, "queue", us_assembled - q_us,
               us_assembled);
  }
  const int model_id = batch.front().request.model_id;
  auto& slot = models_[static_cast<size_t>(model_id)];
  const data::SampleSpec& spec = slot.spec;
  // pop_batch keys on (model_id, window length), so the chain length is
  // uniform across the batch: 1 episode takes the stacked-forward route,
  // e > 1 the sequential chain route below.
  const int episodes =
      static_cast<int>(batch.front().request.window.size() - 1) / spec.T;
  CircuitBreaker& breaker = *breakers_[static_cast<size_t>(model_id)];
  std::timed_mutex& model_mutex =
      *model_mutexes_[static_cast<size_t>(model_id)];
  const int64_t hang_ms = config_.reliability.watchdog.hang_timeout_ms;
  const bool can_degrade = config_.fallback.has_value();

  // Deadline triage: requests already expired at batch assembly fail now,
  // before any work is spent on them.
  std::vector<char> dead(batch.size(), 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (has_deadline(batch[i]) && t_assembled >= batch[i].deadline) {
      dead[i] = 1;
      deliver_error(*inflight, i,
                    typed_error(ForecastErrorCode::kDeadlineExceeded,
                                "expired before service began"),
                    c_deadline_);
    }
  }

  // Identical-episode coalescing over the surviving requests: uniques[u]
  // is the exemplar request of batch entry u; owner[i] maps each request
  // to its entry.
  std::vector<size_t> uniques;
  std::vector<size_t> owner(batch.size(), SIZE_MAX);
  std::vector<int> sharers;  ///< requests per entry
  uniques.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (dead[i]) continue;
    size_t u = uniques.size();
    if (config_.batch.coalesce_identical) {
      for (size_t j = 0; j < uniques.size(); ++j) {
        if (same_window(batch[uniques[j]], batch[i])) {
          u = j;
          break;
        }
      }
    }
    if (u == uniques.size()) {
      uniques.push_back(i);
      sharers.push_back(0);
    }
    owner[i] = u;
    ++sharers[u];
  }
  if (uniques.empty()) return;
  // Fail every surviving request (of entry `u` alone, when given), typed.
  auto fail_live = [&](const std::exception_ptr& e,
                       obs::Counter* extra = nullptr, size_t u = SIZE_MAX) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!dead[i] && (u == SIZE_MAX || owner[i] == u)) {
        deliver_error(*inflight, i, e, extra);
      }
    }
  };

  // Circuit-breaker admission: an open slot serves the verified numerical
  // answer directly (degraded mode); half-open lets one probe batch try
  // the surrogate again.
  const CircuitBreaker::Mode mode = breaker.admit();
  const bool probe = mode == CircuitBreaker::Mode::kProbe;
  bool breaker_degraded = mode == CircuitBreaker::Mode::kDegraded;
  if (breaker_degraded && !can_degrade) {
    fail_live(typed_error(ForecastErrorCode::kCircuitOpen,
                          "slot degraded and no fallback configured"));
    return;
  }

  // Content-addressed cache probe (docs/caching.md), after breaker
  // admission so a non-normal slot bypasses the cache entirely: degraded
  // traffic must take the numerical route, and a half-open probe batch
  // exists precisely to exercise the surrogate.
  std::vector<ForecastCache::Probe> probes(uniques.size());
  std::vector<char> done(uniques.size(), 0);
  const bool use_cache = cache_->policy().enabled &&
                         mode == CircuitBreaker::Mode::kNormal;
  if (use_cache) {
    obs::ScopedStage stage(obs::Stage::kCacheProbe);
    for (size_t u = 0; u < uniques.size(); ++u) {
      const PendingRequest& ex = batch[uniques[u]];
      probes[u] = cache_->probe(ex.cache_key, ex.request.window);
    }
  }
  // Triage spans close here: queue pop -> breaker admission -> cache
  // probe, tagged with what the probe found for this request's entry.
  const int64_t us_triaged = obs::now_us();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (dead[i]) continue;
    uint32_t tflags = 0;
    if (probes[owner[i]].hit) tflags |= obs::kCacheHit;
    else if (probes[owner[i]].prefix) tflags |= obs::kPrefixResume;
    if (breaker_degraded) tflags |= obs::kDegraded;
    trace_span(batch[i].request.trace.id, "triage", us_assembled, us_triaged,
               tflags);
  }
  // Exact hits — an identical window was inserted while this one queued —
  // deliver with no forward and no re-verification: by bitwise rollout
  // determinism the stored frames ARE what a recompute would produce,
  // and the stored verdict already certified them.  The rest (misses and
  // prefix hits) are the live entries that need the surrogate.
  std::vector<size_t> live;
  live.reserve(uniques.size());
  size_t live_sharers = 0;
  for (size_t u = 0; u < uniques.size(); ++u) {
    if (!probes[u].hit) {
      live.push_back(u);
      live_sharers += static_cast<size_t>(sharers[u]);
      continue;
    }
    done[u] = 1;
    {
      obs::Registry::Group g(registry_);
      c_coalesced_->add(sharers[u] - 1);
    }
    int remaining = sharers[u];
    for (size_t i = 0; i < batch.size(); ++i) {
      if (dead[i] || owner[i] != u) continue;
      dead[i] = 1;
      const bool last = --remaining == 0;
      if (auto* p = claim(*inflight, i)) {
        deliver_hit(batch[i], *p, probes[u], last, sharers[u], t_assembled);
      }
    }
  }
  if (live.empty()) return;
  const int64_t B = static_cast<int64_t>(live.size());

  // The coalesced surrogate forward, with bounded deterministic retry for
  // transient failures.  Skipped entirely in degraded mode.
  std::vector<std::vector<data::CenterFields>> decoded(uniques.size());
  std::vector<std::exception_ptr> entry_error(uniques.size());
  std::vector<int> resumed(uniques.size(), 0);
  bool forward_ok = false;
  bool deadline_abort = false;
  std::exception_ptr forward_error;
  // Pack/forward intervals and retry count for the batch route's spans
  // (the chain route records per-entry spans via the ambient binding
  // inside core::resume_rollout instead).
  int64_t us_pack0 = 0, us_pack1 = 0, us_fwd0 = 0, us_fwd1 = 0;
  int fwd_retries = 0;
  if (!breaker_degraded && episodes == 1) {
    // Everything tensor-shaped in this block — the per-request samples,
    // the stacked batch, the forward activations, the batched output —
    // bump-allocates from the arena and is released in bulk at scope
    // exit, so a warmed-up server allocates nothing here.  Only the
    // decoded CenterFields (plain vectors) escape.
    tensor::ArenaScope arena;
    tensor::NoGradGuard ng;
    try {
      // Pack the batch *before* taking the model mutex: sample
      // construction touches only request data and this worker's arena,
      // so another worker's forward overlaps it (the pipeline overlap
      // promised in server.hpp).  The distinct episodes are written
      // straight into one stacked tensor pair — no per-request target
      // tensors, no intermediate concat (bitwise-pinned against the old
      // concat path in tests/test_serve.cpp).
      tensor::Tensor vol, surf;
      {
        obs::ScopedStage stage(obs::Stage::kPack);
        us_pack0 = obs::now_us();
        std::vector<std::span<const data::CenterFields>> windows;
        windows.reserve(live.size());
        for (size_t u : live) {
          windows.push_back(batch[uniques[u]].request.window);
        }
        data::BatchedInput in = data::make_batched_input(spec, windows);
        vol = std::move(in.volume);
        surf = std::move(in.surface);
        us_pack1 = obs::now_us();
      }
      state->beat.fetch_add(1, std::memory_order_relaxed);

      const RetryPolicy& retry = config_.reliability.retry;
      const int max_attempts = std::max(1, retry.max_attempts);
      int64_t backoff_us = std::max<int64_t>(0, retry.backoff_us);
      core::SurrogateOutput out;
      us_fwd0 = obs::now_us();
      for (int attempt = 1; !forward_ok; ++attempt) {
        try {
          const auto model_lock = lock_model(model_mutex, hang_ms);
          COASTAL_FAULT_POINT("serve.forward");
          if (state->retired.load(std::memory_order_acquire)) return;
          // Grouped BatchNorm statistics (and per-request attention
          // routing): each coalesced episode is normalized exactly as it
          // would be served alone, which is what makes the demuxed
          // results bitwise-serial (see nn::BatchStatScope).
          nn::BatchStatScope stat_groups(B);
          out = slot.model->forward(vol, surf);
          forward_ok = true;
        } catch (...) {
          const std::exception_ptr e = std::current_exception();
          if (!is_transient(e) || attempt >= max_attempts) {
            forward_error = e;
            break;
          }
          // Abort the retry chain once every remaining request's
          // deadline has passed — nobody is left to receive the result.
          bool all_expired = true;
          const auto now = clock::now();
          for (size_t i = 0; i < batch.size(); ++i) {
            if (dead[i]) continue;
            if (!has_deadline(batch[i]) || now < batch[i].deadline) {
              all_expired = false;
              break;
            }
          }
          if (all_expired) {
            deadline_abort = true;
            break;
          }
          c_retries_->inc();
          ++fwd_retries;
          std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
          backoff_us = static_cast<int64_t>(
              static_cast<double>(backoff_us) * retry.backoff_mult);
          state->beat.fetch_add(1, std::memory_order_relaxed);
        }
      }
      us_fwd1 = obs::now_us();
      if (profiling) {
        obs::StageProfiler::instance().record(
            obs::Stage::kForward, static_cast<double>(us_fwd1 - us_fwd0));
      }
      if (forward_ok) {
        state->beat.fetch_add(1, std::memory_order_relaxed);
        // Per-entry decode: one entry's failure (or injected fault) must
        // not fail sharers of healthy entries — the blast radius stays
        // one episode.
        obs::ScopedStage decode_stage(obs::Stage::kDecode);
        for (size_t b = 0; b < live.size(); ++b) {
          const size_t u = live[b];
          try {
            const util::FaultAction fa = COASTAL_FAULT_POINT("rollout.step");
            decoded[u] = core::decode_prediction_entry(
                spec, out, static_cast<int64_t>(b), norm_);
            if (fa == util::FaultAction::kNan) poison_first_frame(decoded[u]);
          } catch (...) {
            entry_error[u] = std::current_exception();
          }
        }
      }
    } catch (...) {
      // Pack/stack failure: no forward ran; handled like a forward
      // failure below.
      forward_error = std::current_exception();
    }
  } else if (!breaker_degraded) {
    // Chain route (e > 1 episodes): a chain is inherently sequential —
    // episode e's initial condition is episode e-1's last frame — so
    // there is nothing for a stacked forward to amortize across a chain.
    // Each distinct window runs one resumed rollout; a prefix hit starts
    // it at the first uncached episode (core::resume_rollout), which is
    // where the cache pays off most.
    tensor::NoGradGuard ng;
    const RetryPolicy& retry = config_.reliability.retry;
    const int max_attempts = std::max(1, retry.max_attempts);
    for (size_t u : live) {
      const auto& window = batch[uniques[u]].request.window;
      // Ambient binding: the rollout's own "pack"/"model.forward" spans
      // attach to the entry's exemplar trace (sharers reuse its tree).
      obs::TraceBinding trace_bind(batch[uniques[u]].request.trace.id);
      const int start_episode = probes[u].prefix ? probes[u].episodes : 0;
      // Cooperative cancel between episode forwards: abort only once
      // every sharer's deadline has passed (nobody left to deliver to).
      const core::CancelHook cancel = [&, u] {
        const auto now = clock::now();
        for (size_t i = 0; i < batch.size(); ++i) {
          if (dead[i] || owner[i] != u) continue;
          if (!has_deadline(batch[i]) || now < batch[i].deadline) return;
        }
        throw ForecastError(ForecastErrorCode::kDeadlineExceeded,
                            "expired during chain rollout");
      };
      int64_t backoff_us = std::max<int64_t>(0, retry.backoff_us);
      for (int attempt = 1; !done[u] && entry_error[u] == nullptr;
           ++attempt) {
        try {
          const auto model_lock = lock_model(model_mutex, hang_ms);
          COASTAL_FAULT_POINT("serve.forward");
          if (state->retired.load(std::memory_order_acquire)) return;
          auto suffix = core::resume_rollout(
              *slot.model, spec, norm_, window, episodes, start_episode,
              start_episode > 0 ? &probes[u].frames.back() : nullptr,
              &cancel);
          if (start_episode > 0) {
            // Keep the cached prefix intact across retries: copy it, then
            // append the freshly computed suffix.
            decoded[u] = probes[u].frames;
            decoded[u].reserve(decoded[u].size() + suffix.size());
            for (auto& f : suffix) decoded[u].push_back(std::move(f));
            resumed[u] = static_cast<int>(probes[u].frames.size());
          } else {
            decoded[u] = std::move(suffix);
          }
          break;  // served by the epilogue below
        } catch (const ForecastError& fe) {
          if (fe.code() == ForecastErrorCode::kDeadlineExceeded) {
            // A mid-chain deadline is delivered directly — the request
            // expired, it did not fail; routing it into the numerical
            // fallback would burn a full ROMS chain for nobody.
            fail_live(std::current_exception(), c_deadline_, u);
            done[u] = 1;
          } else {
            entry_error[u] = std::current_exception();  // never transient
          }
        } catch (...) {
          const std::exception_ptr e = std::current_exception();
          if (!is_transient(e) || attempt >= max_attempts) {
            entry_error[u] = e;
            break;
          }
          c_retries_->inc();
          // Zero-length marker in the entry's trace: this chain needed
          // another forward attempt.
          const int64_t tr = obs::now_us();
          trace_span(batch[uniques[u]].request.trace.id, "retry", tr, tr,
                     obs::kFaultRetry);
          std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
          backoff_us = static_cast<int64_t>(
              static_cast<double>(backoff_us) * retry.backoff_mult);
        }
      }
      state->beat.fetch_add(1, std::memory_order_relaxed);
    }
    // Chain outcomes are per-entry (entry_error / done), never a single
    // batch-wide forward failure.
    forward_ok = true;
  }

  // Batch-route spans: every traced request in the batch shares the one
  // pack + forward interval its episode rode in.
  if (us_fwd1 > 0 || us_pack1 > 0) {
    uint32_t fflags = fwd_retries > 0 ? obs::kFaultRetry : 0u;
    int fcode = -1;
    if (!forward_ok && !deadline_abort) {
      fflags |= obs::kError;
      fcode = error_code_of(forward_error);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      if (dead[i]) continue;
      const uint64_t tid = batch[i].request.trace.id;
      if (tid == 0) continue;
      if (us_pack1 > 0) trace_span(tid, "pack", us_pack0, us_pack1);
      if (us_fwd1 > 0) {
        trace_span(tid, "forward", us_fwd0, us_fwd1, fflags, fcode, B);
      }
    }
  }

  if (deadline_abort) {
    fail_live(typed_error(ForecastErrorCode::kDeadlineExceeded,
                          "expired during forward retries"),
              c_deadline_);
    return;
  }

  // Forward failed after retries: report to the breaker, then route the
  // whole batch to the numerical fallback when one is configured, else
  // fail every surviving request (typed).
  bool salvage_numerical = false;
  if (!breaker_degraded && !forward_ok) {
    if (probe) {
      breaker.probe_result(false);
    } else {
      breaker.record_failures(static_cast<int>(uniques.size()));
    }
    if (can_degrade) {
      salvage_numerical = true;
    } else {
      fail_live(as_model_failure(forward_error));
      return;
    }
  }

  // Batch-composition stats land before any promise resolves, so a
  // client that observes its result also observes the batch that carried
  // it.  Only counted when a forward actually executed.
  if (forward_ok) {
    obs::Registry::Group g(registry_);
    c_batches_->inc();
    c_coalesced_->add(static_cast<int64_t>(live_sharers - live.size()));
    h_batch_->observe(static_cast<double>(B));
  }

  // Per-entry epilogue: verification, fallback, or the numerical route,
  // once per distinct episode; then fan the outcome out to every sharer.
  // Outside the arena and the model lock, so other workers' forwards
  // overlap it.
  int probe_failures = 0;
  for (size_t u = 0; u < uniques.size(); ++u) {
    if (done[u]) continue;  // served from cache or expired mid-chain
    state->beat.fetch_add(1, std::memory_order_relaxed);
    const auto& window = batch[uniques[u]].request.window;
    bool entry_fallback = false, entry_verified = false;
    bool entry_degraded = false;
    core::VerificationResult entry_verdict;
    const bool numerical_route =
        breaker_degraded || salvage_numerical || entry_error[u] != nullptr;
    if (numerical_route && !can_degrade) {
      // Per-entry decode failure with no fallback: isolate it.
      fail_live(as_model_failure(entry_error[u]), nullptr, u);
      if (probe) ++probe_failures;
      else if (forward_ok) breaker.record(false);
      continue;
    }
    const int64_t us_entry0 = obs::now_us();
    try {
      if (numerical_route) {
        // Degraded / salvage: compute the episode with the numerical
        // model — verified by construction, and check_sequence confirms.
        obs::ScopedStage stage(obs::Stage::kFallback);
        const data::CenterFields current =
            data::denormalized_copy(window.front(), norm_);
        decoded[u] = core::numerical_episode(
            *grid_, config_.fallback->tides, config_.fallback->params,
            current, current.time, config_.snapshot_dt, spec.T * episodes);
        entry_verdict = verifier_->check_sequence(current, decoded[u],
                                                  config_.snapshot_dt);
        entry_verified = true;
        entry_fallback = true;
        entry_degraded = breaker_degraded;
        if (entry_error[u]) {
          if (probe) ++probe_failures;
          else if (forward_ok) breaker.record(false);
        }
      } else if (verifier_) {
        obs::ScopedStage stage(obs::Stage::kVerify);
        const data::CenterFields current = data::denormalized_copy(
            window.front(), norm_);
        if (resumed[u] > 0) {
          // Prefix resume: the cached verdict already folded the prefix
          // pairs; extending it across the fresh suffix continues that
          // exact left-to-right fold (MassVerifier::extend_sequence), so
          // the combined verdict is bitwise what a cold full pass yields.
          const auto nres = static_cast<size_t>(resumed[u]);
          const std::span<const data::CenterFields> all(decoded[u]);
          if (probes[u].verified) {
            entry_verdict = verifier_->extend_sequence(
                probes[u].verdict, decoded[u][nres - 1], all.subspan(nres),
                config_.snapshot_dt);
          } else {
            entry_verdict = verifier_->check_sequence(current, decoded[u],
                                                      config_.snapshot_dt);
          }
          if (!entry_verdict.pass && config_.fallback) {
            // Whole-chain numerical rerun, mirroring verify_or_fallback
            // (the verdict keeps describing the surrogate chain).
            decoded[u] = core::numerical_episode(
                *grid_, config_.fallback->tides, config_.fallback->params,
                current, current.time, config_.snapshot_dt,
                spec.T * episodes);
            entry_fallback = true;
            resumed[u] = 0;  // nothing of the cache survived
          }
        } else if (config_.fallback) {
          // current.time is the request's own episode start (copied from
          // the IC frame), anchoring the restart's tidal phase.
          const core::EpisodeOutcome outcome = core::verify_or_fallback(
              decoded[u], current, *verifier_, *grid_,
              config_.fallback->tides, config_.fallback->params,
              current.time, config_.snapshot_dt);
          entry_verdict = outcome.verdict;
          entry_fallback = outcome.fallback;
        } else {
          entry_verdict = verifier_->check_sequence(current, decoded[u],
                                                    config_.snapshot_dt);
        }
        entry_verified = true;
      }
      if (!numerical_route) {
        if (probe) {
          if (entry_fallback) ++probe_failures;
        } else if (forward_ok) {
          // A verification fallback counts as a slot failure: a surrogate
          // producing chronic garbage should trip into degraded mode
          // rather than burn a forward per request.
          breaker.record(!entry_fallback);
        }
      }
    } catch (...) {
      fail_live(std::current_exception(), nullptr, u);
      continue;
    }
    // Post-verification cache fill: only the healthy surrogate route in
    // normal breaker mode is admitted — degraded, fallback, salvaged, and
    // errored results never enter the cache (and the cache finite-scans
    // unverified payloads as a last line of defense).  Outside any arena,
    // as insert() requires: the entry's storage must outlive this batch.
    if (use_cache && !numerical_route && !entry_fallback &&
        entry_error[u] == nullptr) {
      cache_->insert(batch[uniques[u]].cache_key, window, decoded[u],
                     entry_verdict, entry_verified);
    }
    // Span tags for this entry's outcome; the verify/fallback interval
    // closed when the try block above finished.
    obs::TraceSpan stage_span;
    stage_span.start_us = us_entry0;
    stage_span.end_us = obs::now_us();
    stage_span.stage = numerical_route ? "fallback" : "verify";
    const bool has_stage = numerical_route || verifier_.has_value();
    uint32_t entry_flags = 0;
    if (entry_fallback) entry_flags |= obs::kFallback;
    if (entry_degraded) entry_flags |= obs::kDegraded;
    if (resumed[u] > 0) entry_flags |= obs::kPrefixResume;
    if (fwd_retries > 0) entry_flags |= obs::kFaultRetry;
    if (entry_verified && !entry_verdict.pass) {
      entry_flags |= obs::kVerifyFailed;
    }
    stage_span.flags = entry_flags;
    if (!numerical_route && entry_fallback) {
      // The surrogate's verdict failed and the frames were recomputed —
      // tag the verify span even though the final verdict passed.
      stage_span.flags |= obs::kVerifyFailed;
    }
    int remaining = sharers[u];
    for (size_t i = 0; i < batch.size(); ++i) {
      if (dead[i] || owner[i] != u) continue;
      const bool last = --remaining == 0;
      std::promise<ForecastResult>* p = claim(*inflight, i);
      if (p == nullptr) continue;
      ForecastResult result;
      // The last sharer takes the frames by move; earlier ones copy.
      result.frames = last ? std::move(decoded[u]) : decoded[u];
      result.batch_size = static_cast<int>(B);
      result.sharers = sharers[u];
      result.resumed_frames = resumed[u];
      result.verdict = entry_verdict;
      result.verified = entry_verified;
      result.fallback = entry_fallback;
      result.degraded = entry_degraded;
      deliver(batch[i], *p, std::move(result), t_assembled, entry_flags,
              has_stage ? &stage_span : nullptr);
    }
  }
  if (probe && forward_ok) breaker.probe_result(probe_failures == 0);
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
      // and spawn a replacement (modeled on ThreadPool::resize's
      // generation swap — the queue and its pending work carry over; only
      // the wedged thread is written off).
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
      std::vector<std::promise<ForecastResult>*> orphans;
      if (inflight) {
        std::lock_guard<std::mutex> lock(inflight->m);
        inflight->abandoned = true;
        for (size_t i = 0; i < inflight->reqs.size(); ++i) {
          if (inflight->resolved[i]) continue;
          inflight->resolved[i] = 1;
          orphans.push_back(&inflight->reqs[i].promise);
          const uint64_t tid = inflight->reqs[i].request.trace.id;
          if (tid != 0) {
            const int64_t t1 = obs::now_us();
            const uint32_t f = obs::kError | obs::kWorkerLost;
            const int code =
                static_cast<int>(ForecastErrorCode::kWorkerLost);
            trace_span(tid, "resolve", t1, t1, f, code);
            trace_span(tid, "request",
                       obs::to_us(inflight->reqs[i].enqueued), t1, f, code);
          }
        }
      }
      bool restarted = false;
      {
        std::lock_guard<std::mutex> lock(workers_mutex_);
        if (restarts_left_ > 0) {
          --restarts_left_;
          spawn_worker_locked();
          restarted = true;
        }
      }
      {
        obs::Registry::Group g(registry_);
        c_worker_lost_->add(static_cast<int64_t>(orphans.size()));
        c_failed_->add(static_cast<int64_t>(orphans.size()));
        if (restarted) c_worker_restarts_->inc();
      }
      for (auto* p : orphans) {
        p->set_exception(typed_error(
            ForecastErrorCode::kWorkerLost,
            "serving worker hung past the heartbeat timeout"));
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

bool ForecastServer::deliver_error(InFlightBatch& b, size_t i,
                                   std::exception_ptr error,
                                   obs::Counter* extra_counter) {
  std::promise<ForecastResult>* p = claim(b, i);
  if (p == nullptr) return false;
  resolve_error(b.reqs[i], *p, std::move(error), extra_counter);
  return true;
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

void ForecastServer::deliver_hit(const PendingRequest& req,
                                 std::promise<ForecastResult>& p,
                                 ForecastCache::Probe& hit, bool take_frames,
                                 int sharers, clock::time_point assembled) {
  ForecastResult result;
  result.frames = take_frames ? std::move(hit.frames) : hit.frames;
  result.batch_size = 0;  // no forward ran for this request
  result.sharers = sharers;
  result.cache_hit = true;
  result.verdict = hit.verdict;
  result.verified = hit.verified;
  // No forward span, by construction: the cache served this one.
  deliver(req, p, std::move(result), assembled, obs::kCacheHit);
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
  s.cache_expired = c.expirations;
  s.cache_bytes = c.bytes;
  s.cache_entries = c.entries;
  return s;
}

}  // namespace coastal::serve
