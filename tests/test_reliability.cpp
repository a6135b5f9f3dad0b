/// Fault-matrix tests for the reliability layer: the deterministic
/// fault-injection DSL, typed request failures (deadline, invalid input,
/// worker lost), bounded retry, circuit-breaker degradation and recovery,
/// the hung-worker watchdog, and the no-fault bitwise + zero-allocation
/// pins with every reliability feature armed.  The chaos pin at the end
/// runs a mixed fault schedule against a client burst and asserts 100%
/// request completion.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "core/rollout.hpp"
#include "core/workflow.hpp"
#include "data/dataset.hpp"
#include "data/normalization.hpp"
#include "ocean/archive.hpp"
#include "ocean/bathymetry.hpp"
#include "serve/reliability.hpp"
#include "serve/server.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "test_helpers.hpp"

namespace core = coastal::core;
namespace data = coastal::data;
namespace ocean = coastal::ocean;
namespace serve = coastal::serve;
namespace tensor = coastal::tensor;
namespace util = coastal::util;
using coastal::util::Rng;

namespace {

/// Every fault test disarms the injector on exit, pass or fail — a
/// leaked schedule would silently poison every later test in the binary.
struct FaultGuard {
  ~FaultGuard() { util::FaultInjector::instance().clear(); }
};

core::SurrogateConfig model_config(const data::SampleSpec& spec) {
  core::SurrogateConfig mcfg;
  mcfg.H = spec.H;
  mcfg.W = spec.W;
  mcfg.D = spec.D;
  mcfg.T = spec.T;
  mcfg.patch_h = 5;
  mcfg.patch_w = 5;
  mcfg.patch_d = 2;
  mcfg.embed_dim = 8;
  mcfg.stages = 3;
  mcfg.heads = {2, 4, 8};
  return mcfg;
}

/// Same world as test_serve's: simulated archive + normalizer +
/// untrained surrogate.  Reliability is control flow around the episode
/// code, so model skill is irrelevant; determinism is everything.
struct ReliabilityWorld {
  ocean::Grid grid{20, 20, 6, 400.0, 400.0};
  ocean::TidalForcing tides = ocean::TidalForcing::gulf_coast_default();
  ocean::PhysicsParams params;
  std::vector<data::CenterFields> fields;       // denormalized
  std::vector<data::CenterFields> fields_norm;  // normalized
  data::Normalizer norm;
  data::SampleSpec spec;
  std::unique_ptr<core::SurrogateModel> model;

  ReliabilityWorld() {
    params.dt = 10.0;
    ocean::generate_estuary(grid, ocean::EstuaryParams{}, 42);
    ocean::ArchiveConfig acfg;
    acfg.spinup_seconds = 3600.0;
    acfg.duration_seconds = 10 * 3600.0;
    acfg.interval_seconds = 1800.0;
    auto snaps = ocean::simulate_archive(grid, tides, params, acfg);
    fields = data::center_archive(grid, snaps);
    for (const auto& f : fields) norm.accumulate(f);
    norm.freeze();
    fields_norm = fields;
    for (auto& f : fields_norm) norm.normalize_fields(f);
    spec = data::make_spec(20, 20, 6, /*T=*/3, /*multiple_hw=*/4,
                           /*multiple_d=*/2);
    Rng rng(7);
    model = std::make_unique<core::SurrogateModel>(model_config(spec), rng);
  }

  static ReliabilityWorld& instance() {
    static ReliabilityWorld w;
    return w;
  }

  serve::ForecastRequest request(size_t start, int64_t timeout_us = 0) const {
    serve::ForecastRequest r;
    r.model_id = 0;
    r.timeout_us = timeout_us;
    r.window.assign(fields_norm.begin() + static_cast<ptrdiff_t>(start),
                    fields_norm.begin() + static_cast<ptrdiff_t>(start) + 4);
    return r;
  }

  /// Serial reference; call only with the injector disarmed (the episode
  /// path itself carries the rollout.step fault site).
  std::vector<data::CenterFields> serial_episode(size_t start) {
    tensor::NoGradGuard ng;
    tensor::ArenaScope arena;
    model->set_training(false);
    std::span<const data::CenterFields> window(fields_norm.data() + start, 4);
    return core::forecast_episode(*model, spec, norm, window, nullptr);
  }
};

void expect_frames_bitwise(const std::vector<data::CenterFields>& a,
                           const std::vector<data::CenterFields>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].u.size(), b[t].u.size());
    for (size_t i = 0; i < a[t].u.size(); ++i) {
      ASSERT_EQ(a[t].u[i], b[t].u[i]) << "u frame " << t << " idx " << i;
      ASSERT_EQ(a[t].v[i], b[t].v[i]);
      ASSERT_EQ(a[t].w[i], b[t].w[i]);
    }
    for (size_t i = 0; i < a[t].zeta.size(); ++i) {
      ASSERT_EQ(a[t].zeta[i], b[t].zeta[i]) << "zeta frame " << t;
    }
  }
}

serve::ServerConfig reliable_config(ReliabilityWorld& w) {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 1;
  cfg.batch.max_wait_us = 0;
  cfg.threshold = 10.0;  // verification passes any finite forecast
  cfg.snapshot_dt = 1800.0;
  cfg.fallback = serve::FallbackContext{w.tides, w.params};
  return cfg;
}

}  // namespace

TEST(FaultInjection, ScheduleIsDeterministicPerSeed) {
  FaultGuard guard;
  auto& inj = util::FaultInjector::instance();
  constexpr int kHits = 256;

  auto run = [&](uint64_t seed) {
    inj.install("site.a:drop@"
                "0.3",
                seed);
    std::vector<int> pattern;
    pattern.reserve(kHits);
    for (int i = 0; i < kHits; ++i) {
      pattern.push_back(
          util::fault_point("site.a") == util::FaultAction::kDrop ? 1 : 0);
    }
    return pattern;
  };

  const auto p1 = run(123);
  const auto st = inj.site_stats("site.a");
  EXPECT_EQ(st.hits, static_cast<uint64_t>(kHits));
  // ~30% of 256 — a loose band, but any schedule bug lands far outside.
  EXPECT_GT(st.fires, 30u);
  EXPECT_LT(st.fires, 130u);
  EXPECT_EQ(p1, run(123)) << "same seed must replay the same firing set";
  EXPECT_NE(p1, run(999)) << "a different seed must draw differently";
}

TEST(FaultInjection, MaxFiresCapAndDisarm) {
  FaultGuard guard;
  auto& inj = util::FaultInjector::instance();
  inj.install("s:drop@1x3");
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    const auto a = util::fault_point("s");
    if (a == util::FaultAction::kDrop) ++fired;
    // Deterministic: at probability 1 the first three hits fire, no more.
    EXPECT_EQ(a, i < 3 ? util::FaultAction::kDrop : util::FaultAction::kNone);
  }
  EXPECT_EQ(fired, 3);
  const auto st = inj.site_stats("s");
  EXPECT_EQ(st.hits, 10u);
  EXPECT_EQ(st.fires, 3u);

  inj.clear();
  EXPECT_FALSE(util::fault_armed());
  EXPECT_EQ(util::fault_point("s"), util::FaultAction::kNone);
  EXPECT_EQ(inj.site_stats("s").hits, 0u) << "clear() resets counters";
}

TEST(FaultInjection, MalformedSchedulesAreRejected) {
  FaultGuard guard;
  auto& inj = util::FaultInjector::instance();
  EXPECT_THROW(inj.install("noaction"), util::CheckError);
  EXPECT_THROW(inj.install("s:frobnicate"), util::CheckError);
  EXPECT_THROW(inj.install("s:throw@7"), util::CheckError);
  EXPECT_THROW(inj.install("s:delay@0.5"), util::CheckError);  // no duration
  EXPECT_THROW(inj.install("s:throw=5ms"), util::CheckError);  // stray value
  EXPECT_THROW(inj.install("s:drop@1x0"), util::CheckError);
  EXPECT_FALSE(inj.armed()) << "a rejected schedule must not arm anything";
}

TEST(FaultInjection, DelayActionSleepsForTheScheduledDuration) {
  FaultGuard guard;
  util::FaultInjector::instance().install("slow:delay=50ms@1x1");
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(util::fault_point("slow"), util::FaultAction::kDelay);
  const auto first = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(first, std::chrono::milliseconds(45));
  // Fires are capped at one: the next hit is a no-op.
  EXPECT_EQ(util::fault_point("slow"), util::FaultAction::kNone);
}

TEST(Reliability, RetryRecoversFromTransientFaultsBitwise) {
  auto& w = ReliabilityWorld::instance();
  const auto serial = w.serial_episode(0);  // reference before arming

  FaultGuard guard;
  util::FaultInjector::instance().install("serve.forward:throw@1x2");
  serve::ServerConfig cfg = reliable_config(w);
  cfg.reliability.retry.max_attempts = 3;
  cfg.reliability.retry.backoff_us = 200;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  auto f = server.submit(w.request(0));
  ASSERT_TRUE(f.has_value());
  serve::ForecastResult r = f->get();
  // Two injected throws burned attempts 1 and 2; attempt 3 succeeded and
  // the result is the exact frames a fault-free run produces.
  EXPECT_FALSE(r.fallback);
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(r.verified);
  expect_frames_bitwise(r.frames, serial);

  const auto stats = server.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(util::FaultInjector::instance().site_stats("serve.forward").fires,
            2u);
}

TEST(Reliability, DecodeNanRoutesToVerifiedFallback) {
  auto& w = ReliabilityWorld::instance();
  FaultGuard guard;
  util::FaultInjector::instance().install("rollout.step:nan@1x1");
  // threshold 10 passes any *finite* forecast (see reliable_config), so a
  // fallback here is attributable to the injected NaN alone: the poisoned
  // frame's NaN residual fails `mean_residual < threshold`.
  serve::ServerConfig cfg = reliable_config(w);
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  auto f = server.submit(w.request(0));
  ASSERT_TRUE(f.has_value());
  serve::ForecastResult r = f->get();
  // The poisoned surrogate frames failed verification; the numerical
  // model recomputed the episode, so the client still gets finite physics.
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(r.fallback);
  EXPECT_FALSE(r.degraded);
  ASSERT_EQ(r.frames.size(), 3u);
  for (const auto& fr : r.frames) {
    for (float v : fr.zeta) ASSERT_TRUE(std::isfinite(v));
    for (float v : fr.u) ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(server.stats().fallbacks, 1u);
  EXPECT_EQ(server.stats().served, 1u);
}

TEST(Reliability, ExpiredDeadlineFailsWithTypedError) {
  auto& w = ReliabilityWorld::instance();
  FaultGuard guard;
  // Stall batch assembly well past the 1 ms deadline, deterministically.
  util::FaultInjector::instance().install("serve.worker:delay=30ms@1");
  serve::ServerConfig cfg = reliable_config(w);
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  auto f = server.submit(w.request(0, /*timeout_us=*/1000));
  ASSERT_TRUE(f.has_value());
  try {
    f->get();
    FAIL() << "expired request must not resolve with a value";
  } catch (const serve::ForecastError& e) {
    EXPECT_EQ(e.code(), serve::ForecastErrorCode::kDeadlineExceeded);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.served, 0u);
}

TEST(Reliability, SubmitScreensNonFiniteWindows) {
  auto& w = ReliabilityWorld::instance();
  serve::ServerConfig cfg = reliable_config(w);
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  serve::ForecastRequest bad = w.request(0);
  bad.window[2].u[5] = std::numeric_limits<float>::quiet_NaN();
  auto f = server.submit(std::move(bad));
  ASSERT_TRUE(f.has_value()) << "screening resolves the future, not submit";
  try {
    f->get();
    FAIL() << "non-finite window must be refused";
  } catch (const serve::ForecastError& e) {
    EXPECT_EQ(e.code(), serve::ForecastErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("frame 2"), std::string::npos);
  }
  // ±Inf anywhere is refused too, down to the last ζ cell of the window.
  for (const float inf : {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    serve::ForecastRequest req = w.request(0);
    req.window.back().zeta.back() = inf;
    auto fi = server.submit(std::move(req));
    ASSERT_TRUE(fi.has_value());
    try {
      fi->get();
      FAIL() << "an infinite value must be refused";
    } catch (const serve::ForecastError& e) {
      EXPECT_EQ(e.code(), serve::ForecastErrorCode::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find("frame 3"), std::string::npos);
    }
  }
  EXPECT_EQ(server.stats().invalid, 3u);
  EXPECT_EQ(server.stats().served, 0u);

  // A clean request on the same server still serves normally.
  auto ok = server.submit(w.request(0));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->get().frames.size(), 3u);
}

TEST(Reliability, BreakerTripsDegradesAndRecoversViaProbe) {
  auto& w = ReliabilityWorld::instance();
  FaultGuard guard;
  // Exactly two forward failures (no retries), then the slot is healthy
  // again — the breaker, not the fault, decides everything after that.
  util::FaultInjector::instance().install("serve.forward:throw@1x2");
  serve::ServerConfig cfg = reliable_config(w);
  cfg.reliability.retry.max_attempts = 1;
  cfg.reliability.breaker.window = 4;
  cfg.reliability.breaker.min_samples = 2;
  cfg.reliability.breaker.trip_rate = 0.5;
  cfg.reliability.breaker.cooldown_us = 3'000'000;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  auto serve_one = [&](size_t start) {
    auto f = server.submit(w.request(start));
    EXPECT_TRUE(f.has_value());
    return f->get();
  };

  // Failures 1 and 2: forward throws, the batch is salvaged numerically.
  for (size_t i = 0; i < 2; ++i) {
    serve::ForecastResult r = serve_one(i);
    EXPECT_TRUE(r.fallback);
    EXPECT_FALSE(r.degraded) << "salvage is not breaker degradation";
  }
  EXPECT_EQ(server.stats().breaker_trips, 1u);
  EXPECT_EQ(server.stats().breaker_open_slots, 1);

  // Open circuit, cooldown pending: served degraded, surrogate untouched.
  const uint64_t forwards_before =
      util::FaultInjector::instance().site_stats("serve.forward").hits;
  serve::ForecastResult degraded = serve_one(2);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_TRUE(degraded.fallback);
  EXPECT_TRUE(degraded.verified);
  EXPECT_EQ(util::FaultInjector::instance().site_stats("serve.forward").hits,
            forwards_before)
      << "degraded mode must bypass the surrogate forward";

  // After the cooldown, one probe batch runs the (now healthy) surrogate
  // and closes the circuit.
  std::this_thread::sleep_for(std::chrono::milliseconds(3300));
  serve::ForecastResult probe = serve_one(3);
  EXPECT_FALSE(probe.degraded);
  EXPECT_FALSE(probe.fallback);
  serve::ForecastResult after = serve_one(4);
  EXPECT_FALSE(after.degraded);
  EXPECT_FALSE(after.fallback);

  const auto stats = server.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_open_slots, 0);
  EXPECT_EQ(stats.served, 5u);
}

TEST(Reliability, WatchdogReplacesHungWorkerAndFailsItsBatch) {
  auto& w = ReliabilityWorld::instance();
  FaultGuard guard;
  util::FaultInjector::instance().install("serve.worker:hang@1x1");
  serve::ServerConfig cfg = reliable_config(w);
  cfg.reliability.watchdog.hang_timeout_ms = 1000;
  cfg.reliability.watchdog.poll_ms = 25;
  cfg.reliability.watchdog.max_restarts = 2;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);

  // The single worker pops this request and parks at serve.worker.
  auto hung = server.submit(w.request(0));
  ASSERT_TRUE(hung.has_value());
  ASSERT_EQ(hung->wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "the watchdog must fail a hung batch";
  try {
    hung->get();
    FAIL() << "a hung batch must resolve with kWorkerLost";
  } catch (const serve::ForecastError& e) {
    EXPECT_EQ(e.code(), serve::ForecastErrorCode::kWorkerLost);
  }

  // Queued work carries over: the replacement worker serves new traffic
  // while the hung thread is still parked.
  auto next = server.submit(w.request(1));
  ASSERT_TRUE(next.has_value());
  ASSERT_EQ(next->wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(next->get().frames.size(), 3u);

  const auto stats = server.stats();
  EXPECT_EQ(stats.worker_lost, 1u);
  EXPECT_EQ(stats.worker_restarts, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_GE(util::FaultInjector::instance().parked(), 1)
      << "the retired worker is still parked until shutdown releases it";
  // Destructor shutdown releases the parked thread and joins everything.
}

TEST(Reliability, ProbeRetiredByTheWatchdogReopensTheBreaker) {
  auto& w = ReliabilityWorld::instance();
  FaultGuard guard;
  auto& faults = util::FaultInjector::instance();
  faults.install("serve.forward:throw@1x2");
  serve::ServerConfig cfg = reliable_config(w);
  cfg.reliability.retry.max_attempts = 1;
  cfg.reliability.breaker.window = 4;
  cfg.reliability.breaker.min_samples = 2;
  cfg.reliability.breaker.trip_rate = 0.5;
  cfg.reliability.breaker.cooldown_us = 900'000;
  cfg.reliability.watchdog.hang_timeout_ms = 600;
  cfg.reliability.watchdog.poll_ms = 25;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  for (size_t i = 0; i < 2; ++i) {
    auto f = server.submit(w.request(i));
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(f->get().fallback);
  }
  ASSERT_EQ(server.stats().breaker_trips, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));

  // The probe's forward stalls past the hang timeout, so the watchdog
  // retires its worker and fails its request.
  faults.install("serve.forward:delay=1800ms@1x1");
  auto probe = server.submit(w.request(2));
  ASSERT_TRUE(probe.has_value());
  probe->wait();
  // The retirement reopened the circuit.  Past a fresh cooldown, the
  // replacement worker's probe runs the healthy surrogate and closes it.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  auto next = server.submit(w.request(3));
  ASSERT_TRUE(next.has_value());
  const serve::ForecastResult r = next->get();
  EXPECT_FALSE(r.degraded) << "the breaker stayed half-open";
  EXPECT_FALSE(r.fallback);
  // Drain first: the probe reports after its delivery, and see
  // ChainPastItsDeadline for reading an error a worker also holds.
  server.shutdown();
  try {
    probe->get();
    ADD_FAILURE() << "the retired probe's request must fail";
  } catch (const serve::ForecastError& e) {
    EXPECT_EQ(e.code(), serve::ForecastErrorCode::kWorkerLost);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.worker_lost, 1u);
  EXPECT_EQ(stats.breaker_open_slots, 0);
}

TEST(Reliability, NoFaultPathStaysBitwiseAndAllocationFree) {
  auto& w = ReliabilityWorld::instance();
  ASSERT_FALSE(util::fault_armed());
  std::vector<std::vector<data::CenterFields>> serial(4);
  for (size_t i = 0; i < 4; ++i) serial[i] = w.serial_episode(i);

  // Every reliability feature armed — screening, retries, breaker,
  // watchdog — but no schedule installed: pure control-flow overhead.
  serve::ServerConfig cfg = reliable_config(w);
  cfg.workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 100000;
  cfg.reliability.watchdog.hang_timeout_ms = 5000;
  cfg.reliability.watchdog.poll_ms = 50;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  auto round = [&](bool compare) {
    std::vector<std::future<serve::ForecastResult>> futures;
    for (size_t i = 0; i < 4; ++i) {
      auto f = server.submit(w.request(i));
      ASSERT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    for (size_t i = 0; i < 4; ++i) {
      serve::ForecastResult r = futures[i].get();
      EXPECT_FALSE(r.fallback);
      EXPECT_FALSE(r.degraded);
      if (compare) expect_frames_bitwise(r.frames, serial[i]);
    }
  };
  round(true);
  round(true);
  if (tensor::pool_enabled()) {
    const uint64_t before = tensor::alloc_stats().total_allocs;
    round(false);
    round(false);
    const uint64_t after = tensor::alloc_stats().total_allocs;
    EXPECT_EQ(after, before)
        << "reliability machinery must not break the zero-alloc pin";
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.worker_lost, 0u);
  EXPECT_EQ(stats.breaker_trips, 0u);
}

TEST(Reliability, ChaosBurstCompletesEveryRequest) {
  auto& w = ReliabilityWorld::instance();
  FaultGuard guard;
  // The ISSUE's chaos pin: 5% forward throws, 1% decode NaNs, and one
  // worker hang, against an 8-client burst.  Every future must resolve;
  // everything the watchdog didn't write off must succeed.
  util::FaultInjector::instance().install(
      "serve.forward:throw@"
      "0.05;rollout.step:nan@"
      "0.01;serve.worker:hang@1x1",
      2026);
  serve::ServerConfig cfg = reliable_config(w);
  cfg.workers = 2;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 2000;
  // reliable_config's threshold (10) passes finite forecasts, so only
  // NaN-poisoned entries take the numerical fallback route.
  cfg.reliability.retry.max_attempts = 4;
  cfg.reliability.retry.backoff_us = 200;
  cfg.reliability.watchdog.hang_timeout_ms = 2500;
  cfg.reliability.watchdog.poll_ms = 50;
  cfg.reliability.watchdog.max_restarts = 2;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);

  constexpr size_t kClients = 8, kRounds = 3;
  std::vector<std::future<serve::ForecastResult>> futures;
  for (size_t r = 0; r < kRounds; ++r) {
    for (size_t c = 0; c < kClients; ++c) {
      auto f = server.submit(w.request(c));
      ASSERT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
  }

  size_t ok = 0, lost = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(120)),
              std::future_status::ready)
        << "every accepted request must resolve under chaos";
    try {
      serve::ForecastResult r = f.get();
      EXPECT_EQ(r.frames.size(), 3u);
      ++ok;
    } catch (const serve::ForecastError& e) {
      EXPECT_EQ(e.code(), serve::ForecastErrorCode::kWorkerLost)
          << "with a fallback configured, only the hung batch may fail";
      ++lost;
    }
  }
  EXPECT_EQ(ok + lost, kClients * kRounds);
  EXPECT_GE(lost, 1u) << "the scheduled hang fires on the first batch";
  EXPECT_LE(lost, 4u) << "blast radius is one batch";

  const auto stats = server.stats();
  EXPECT_EQ(stats.worker_restarts, 1u);
  EXPECT_EQ(stats.served, ok);
  EXPECT_EQ(stats.worker_lost, lost);
  // The hung thread stays parked until shutdown; it must not have served.
  EXPECT_GE(util::FaultInjector::instance().parked(), 1);
}

TEST(Reliability, WarmCacheChaosBurstNeverServesPoisonedEntries) {
  auto& w = ReliabilityWorld::instance();
  FaultGuard guard;
  serve::ServerConfig cfg = reliable_config(w);
  cfg.workers = 2;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 2000;
  cfg.reliability.retry.max_attempts = 4;
  cfg.reliability.retry.backoff_us = 200;
  // Keep the breaker out of the way: degraded mode bypasses the cache by
  // design (its own pin lives in test_cache), and this test is about what
  // the chaos run is allowed to *admit*.
  cfg.reliability.breaker.enabled = false;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);

  // Clean serial references for every window, then warm the cache with
  // the first kWarm of them — all with the injector disarmed.
  constexpr size_t kWindows = 10, kWarm = 5;
  std::vector<std::vector<data::CenterFields>> ref(kWindows);
  for (size_t c = 0; c < kWindows; ++c) ref[c] = w.serial_episode(c);
  for (size_t c = 0; c < kWarm; ++c) {
    auto f = server.submit(w.request(c));
    ASSERT_TRUE(f.has_value());
    serve::ForecastResult r = f->get();
    EXPECT_FALSE(r.fallback);
    expect_frames_bitwise(r.frames, ref[c]);
  }
  ASSERT_EQ(server.stats().cache_inserts, kWarm);

  // Chaos burst against the warm cache: heavy NaN poisoning plus
  // transient forward throws, over duplicates of the warm windows and
  // never-seen cold windows alike.  No hang is scheduled, so with the
  // fallback configured every single future must resolve with a value.
  util::FaultInjector::instance().install(
      "serve.forward:throw@0.1;rollout.step:nan@0.3", 7);
  constexpr size_t kRounds = 4;
  std::vector<std::future<serve::ForecastResult>> futures;
  std::vector<size_t> starts;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t c = 0; c < kWindows; ++c) {
      auto f = server.submit(w.request(c));
      ASSERT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
      starts.push_back(c);
    }
  }
  size_t hits = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(120)),
              std::future_status::ready)
        << "every request must complete under cache + chaos";
    serve::ForecastResult r = futures[i].get();
    ASSERT_EQ(r.frames.size(), 3u);
    for (const auto& fr : r.frames) {
      for (float v : fr.zeta) ASSERT_TRUE(std::isfinite(v));
      for (float v : fr.u) ASSERT_TRUE(std::isfinite(v));
    }
    if (r.cache_hit) {
      // A hit bypasses every fault site, so it must be the clean bytes;
      // a poisoned admission could only surface right here.
      EXPECT_FALSE(r.fallback);
      expect_frames_bitwise(r.frames, ref[starts[i]]);
      ++hits;
    }
  }
  // The warm windows' duplicates never touch the surrogate at all.
  EXPECT_GE(hits, kRounds * kWarm);
  EXPECT_EQ(server.stats().failed, 0u);

  // Post-chaos, every window — whether it was cached cleanly mid-chaos or
  // fell back and was (correctly) never admitted — serves the clean
  // reference bytes.
  util::FaultInjector::instance().clear();
  for (size_t c = 0; c < kWindows; ++c) {
    auto f = server.submit(w.request(c));
    ASSERT_TRUE(f.has_value());
    serve::ForecastResult r = f->get();
    EXPECT_FALSE(r.fallback);
    expect_frames_bitwise(r.frames, ref[c]);
  }
}

TEST(Reliability, BreakerCountsOnlyTheEntriesOfAFailedForward) {
  auto& w = ReliabilityWorld::instance();
  FaultGuard guard;
  auto& faults = util::FaultInjector::instance();
  // The first batch parks at serve.worker; with seed 6, serve.forward
  // fires on hit 1 alone of hits 0..2, so the first batch's forward
  // succeeds and the second batch's fails.
  faults.install("serve.worker:hang@1x1;serve.forward:throw@0.5", 6);
  serve::ServerConfig cfg = reliable_config(w);
  cfg.batch.max_batch = 2;
  cfg.batch.max_wait_us = 200000;
  cfg.reliability.retry.max_attempts = 1;
  // One success then one failure stays below min_samples; one success
  // then two failures (the miss and the hit counted together) trips.
  cfg.reliability.breaker.window = 8;
  cfg.reliability.breaker.min_samples = 3;
  cfg.reliability.breaker.trip_rate = 0.5;
  cfg.reliability.breaker.cooldown_us = 60'000'000;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);

  auto first = server.submit(w.request(0));
  ASSERT_TRUE(first.has_value());
  for (int i = 0; i < 10000 && faults.parked() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(faults.parked(), 1) << "the worker never reached serve.worker";
  // Queued behind the parked batch: a duplicate of window 0 (an admission
  // miss, nothing is cached yet) and a cold window.  They form the second
  // batch, where the duplicate is a worker-side exact hit.
  auto dup = server.submit(w.request(0));
  auto cold = server.submit(w.request(1));
  ASSERT_TRUE(dup.has_value());
  ASSERT_TRUE(cold.has_value());
  faults.release_hangs();

  EXPECT_FALSE(first->get().fallback);
  const serve::ForecastResult hit = dup->get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.batch_size, 0);
  const serve::ForecastResult salvaged = cold->get();
  EXPECT_TRUE(salvaged.fallback) << "the failed forward is salvaged";
  EXPECT_FALSE(salvaged.degraded);

  EXPECT_EQ(faults.site_stats("serve.forward").fires, 1u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.breaker_trips, 0u)
      << "the hit never rode the failed forward, so it is no failure";
  EXPECT_EQ(stats.breaker_open_slots, 0);
  EXPECT_EQ(stats.served, 3u);
}

namespace {

/// `episodes`-episode chain request starting at archive frame `start`.
serve::ForecastRequest chain_request(const ReliabilityWorld& w, size_t start,
                                     int episodes, int64_t timeout_us = 0) {
  serve::ForecastRequest r = w.request(start, timeout_us);
  const size_t frames = static_cast<size_t>(episodes * w.spec.T) + 1;
  r.window.assign(
      w.fields_norm.begin() + static_cast<ptrdiff_t>(start),
      w.fields_norm.begin() + static_cast<ptrdiff_t>(start + frames));
  return r;
}

}  // namespace

TEST(Reliability, ChainRetryRerunsOnlyTheFailedStep) {
  auto& w = ReliabilityWorld::instance();
  constexpr int kEpisodes = 2;
  const auto ref = core::rollout(
      *w.model, w.spec, w.norm,
      {w.fields_norm.data(), static_cast<size_t>(kEpisodes * w.spec.T) + 1},
      kEpisodes);  // reference before arming

  FaultGuard guard;
  util::FaultInjector::instance().install("serve.forward:throw@1x1");
  serve::ServerConfig cfg = reliable_config(w);
  cfg.reliability.retry.max_attempts = 3;
  cfg.reliability.retry.backoff_us = 200;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  auto f = server.submit(chain_request(w, 0, kEpisodes));
  ASSERT_TRUE(f.has_value());
  const serve::ForecastResult r = f->get();
  EXPECT_FALSE(r.fallback);
  EXPECT_TRUE(r.verified);
  expect_frames_bitwise(r.frames, ref);
  EXPECT_EQ(server.stats().retries, 1u);
  // Step 0 failed once and ran again, then step 1 ran: the retry re-ran
  // one step's forward, not the chain.
  EXPECT_EQ(util::FaultInjector::instance().site_stats("serve.forward").hits,
            3u);
}

TEST(Reliability, ChainPastItsDeadlineFailsWithoutReachingTheFallback) {
  auto& w = ReliabilityWorld::instance();
  // The delay lands on the first step's forward (`x1`), or, with seed 6,
  // on the second's alone (hit 1 of hits 0..2).  Either way the deadline
  // passes inside a step and is caught before the next step or settle.
  struct Case {
    const char* schedule;
    uint64_t seed;
    uint64_t forwards;
  };
  for (const Case& c : {Case{"serve.forward:delay=800ms@1x1", 1, 1},
                        Case{"serve.forward:delay=800ms@0.5", 6, 2}}) {
    SCOPED_TRACE(c.schedule);
    FaultGuard guard;
    util::FaultInjector::instance().install(c.schedule, c.seed);
    serve::ServerConfig cfg = reliable_config(w);
    cfg.threshold = 0.0;  // any verified chain would fall back
    serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                                 cfg);
    auto f = server.submit(chain_request(w, 0, 2, /*timeout_us=*/300000));
    ASSERT_TRUE(f.has_value());
    // Drain first, so the worker has dropped its share of the error before
    // this thread reads it: libstdc++ counts exception references outside
    // ThreadSanitizer's view, and a worker freeing the error after the read
    // would be reported as a race.
    server.shutdown();
    try {
      f->get();
      ADD_FAILURE() << "a chain past its deadline must not resolve a value";
    } catch (const serve::ForecastError& e) {
      EXPECT_EQ(e.code(), serve::ForecastErrorCode::kDeadlineExceeded);
    }
    EXPECT_EQ(util::FaultInjector::instance().site_stats("serve.forward").hits,
              c.forwards);
    const auto stats = server.stats();
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(stats.deadline_expired, 1u);
    EXPECT_EQ(stats.served, 0u);
  }
}

TEST(Reliability, ProbeBatchPastItsDeadlineStillClosesTheBreaker) {
  auto& w = ReliabilityWorld::instance();
  // The probe's forward succeeds but its one request expires during it:
  // on a 1-episode window after the only step, on a 2-episode chain
  // between the steps (no entry is left to settle).  Either way the
  // forward was healthy, so the breaker closes instead of staying
  // half-open and degrading every later batch.
  for (const int episodes : {1, 2}) {
    SCOPED_TRACE(episodes);
    FaultGuard guard;
    auto& faults = util::FaultInjector::instance();
    faults.install("serve.forward:throw@1x2");
    serve::ServerConfig cfg = reliable_config(w);
    cfg.reliability.retry.max_attempts = 1;
    cfg.reliability.breaker.window = 4;
    cfg.reliability.breaker.min_samples = 2;
    cfg.reliability.breaker.trip_rate = 0.5;
    cfg.reliability.breaker.cooldown_us = 200'000;
    serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                                 cfg);
    for (size_t i = 0; i < 2; ++i) {
      auto f = server.submit(w.request(i));
      ASSERT_TRUE(f.has_value());
      EXPECT_TRUE(f->get().fallback);
    }
    ASSERT_EQ(server.stats().breaker_trips, 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    faults.install("serve.forward:delay=600ms@1x1");
    auto probe =
        server.submit(chain_request(w, 2, episodes, /*timeout_us=*/200000));
    ASSERT_TRUE(probe.has_value());
    probe->wait();
    // One worker: the next batch starts after the probe batch has settled.
    auto next = server.submit(w.request(5));
    ASSERT_TRUE(next.has_value());
    const serve::ForecastResult r = next->get();
    EXPECT_FALSE(r.degraded) << "the breaker stayed half-open";
    EXPECT_FALSE(r.fallback);
    EXPECT_EQ(faults.site_stats("serve.forward").hits, 2u);
    server.shutdown();  // see ChainPastItsDeadline: drain before the read
    try {
      probe->get();
      ADD_FAILURE() << "the probe request expired during its forward";
    } catch (const serve::ForecastError& e) {
      EXPECT_EQ(e.code(), serve::ForecastErrorCode::kDeadlineExceeded);
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.breaker_trips, 1u);
    EXPECT_EQ(stats.breaker_open_slots, 0);
    EXPECT_EQ(stats.degraded, 0u);
  }
}

TEST(Reliability, WindowPastItsDeadlineAfterItsLastStepIsStillCached) {
  auto& w = ReliabilityWorld::instance();
  FaultGuard guard;
  auto& faults = util::FaultInjector::instance();
  faults.install("serve.forward:delay=600ms@1x1");
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               reliable_config(w));
  auto late = server.submit(w.request(0, /*timeout_us=*/200000));
  ASSERT_TRUE(late.has_value());
  late->wait();
  // The finished forecast was verified and cached before delivery failed,
  // so the client's retry of the same window is an admission hit.
  auto retry = server.submit(w.request(0));
  ASSERT_TRUE(retry.has_value());
  const serve::ForecastResult r = retry->get();
  EXPECT_TRUE(r.cache_hit);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(faults.site_stats("serve.forward").hits, 1u);
  server.shutdown();  // see ChainPastItsDeadline: drain before the read
  try {
    late->get();
    ADD_FAILURE() << "the first request expired during its forward";
  } catch (const serve::ForecastError& e) {
    EXPECT_EQ(e.code(), serve::ForecastErrorCode::kDeadlineExceeded);
  }
  EXPECT_EQ(server.stats().fallbacks, 0u);
}
