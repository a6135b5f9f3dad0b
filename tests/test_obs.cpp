/// Observability-layer tests: metrics registry exactness under
/// concurrency, legacy-compatible histogram math, Prometheus/JSON
/// exposition, per-request trace span trees (fault-tagged, cache-hit,
/// cross-stage), the stage profiler, fault-site cumulative stats, the
/// obs-on zero-allocation pin, and bitwise invariance of served frames
/// with observability on vs off.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/rollout.hpp"
#include "data/dataset.hpp"
#include "data/normalization.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "ocean/archive.hpp"
#include "ocean/bathymetry.hpp"
#include "serve/server.hpp"
#include "tensor/storage.hpp"
#include "util/fault.hpp"
#include "test_helpers.hpp"

namespace core = coastal::core;
namespace data = coastal::data;
namespace obs = coastal::obs;
namespace ocean = coastal::ocean;
namespace serve = coastal::serve;
namespace tensor = coastal::tensor;
namespace util = coastal::util;
using coastal::util::Rng;

namespace {

struct FaultGuard {
  ~FaultGuard() { util::FaultInjector::instance().clear(); }
};

/// Restores the global trace recorder to its disabled default and drops
/// retained spans, so obs tests cannot leak tracing into each other.
struct TraceGuard {
  ~TraceGuard() {
    obs::TraceRecorder::instance().configure(obs::TraceConfig{});
    obs::TraceRecorder::instance().clear();
  }
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

/// Shared world for the server-integration tests (same shape as
/// test_serve's: untrained surrogate over a simulated archive — obs
/// correctness is about instrumentation, not skill).
struct ObsWorld {
  ocean::Grid grid{20, 20, 6, 400.0, 400.0};
  ocean::TidalForcing tides = ocean::TidalForcing::gulf_coast_default();
  ocean::PhysicsParams params;
  std::vector<data::CenterFields> fields_norm;
  data::Normalizer norm;
  data::SampleSpec spec;
  std::unique_ptr<core::SurrogateModel> model;

  ObsWorld() {
    params.dt = 10.0;
    ocean::generate_estuary(grid, ocean::EstuaryParams{}, 42);
    ocean::ArchiveConfig acfg;
    acfg.spinup_seconds = 3600.0;
    acfg.duration_seconds = 8 * 3600.0;
    acfg.interval_seconds = 1800.0;
    auto snaps = ocean::simulate_archive(grid, tides, params, acfg);
    auto fields = data::center_archive(grid, snaps);
    for (const auto& f : fields) norm.accumulate(f);
    norm.freeze();
    fields_norm = fields;
    for (auto& f : fields_norm) norm.normalize_fields(f);

    spec = data::make_spec(20, 20, 6, /*T=*/3, /*multiple_hw=*/4,
                           /*multiple_d=*/2);
    Rng rng(7);
    model = std::make_unique<core::SurrogateModel>(model_config(spec), rng);
  }

  static ObsWorld& instance() {
    static ObsWorld w;
    return w;
  }

  serve::ForecastRequest request(size_t start) const {
    serve::ForecastRequest r;
    r.window.assign(fields_norm.begin() + static_cast<ptrdiff_t>(start),
                    fields_norm.begin() + static_cast<ptrdiff_t>(start) + 4);
    return r;
  }

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

/// Group every retained span by trace id.
std::map<uint64_t, std::vector<obs::TraceSpan>> spans_by_trace() {
  std::map<uint64_t, std::vector<obs::TraceSpan>> by;
  for (const auto& s : obs::TraceRecorder::instance().spans()) {
    by[s.trace_id].push_back(s);
  }
  return by;
}

bool has_stage(const std::vector<obs::TraceSpan>& spans, const char* stage,
               uint32_t required_flags = 0) {
  for (const auto& s : spans) {
    if (std::strcmp(s.stage, stage) == 0 &&
        (s.flags & required_flags) == required_flags) {
      return true;
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry primitives
// ---------------------------------------------------------------------------

TEST(ObsRegistry, ConcurrentCounterIsExact) {
  obs::Registry reg;
  obs::Counter* c = reg.counter("t_events_total", "events");
  constexpr int kThreads = 8, kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c->inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), int64_t{kThreads} * kPerThread);
  c->add(-3);  // documented reversal path
  EXPECT_EQ(c->value(), int64_t{kThreads} * kPerThread - 3);
}

TEST(ObsRegistry, ConcurrentHistogramCountsEveryObservation) {
  obs::Registry reg;
  obs::Histogram* h = reg.histogram("t_lat_us", "latency",
                                    obs::HistogramSpec::latency_us());
  constexpr int kThreads = 8, kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->observe(static_cast<double>(1 + (t * kPerThread + i) % 5000));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h->snapshot();
  EXPECT_EQ(snap.total, uint64_t{kThreads} * kPerThread);
  uint64_t bucket_sum = 0;
  for (uint64_t c : snap.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, snap.total);
  EXPECT_GT(snap.sum, 0.0);
}

TEST(ObsRegistry, LatencySpecReproducesLegacyBucketMath) {
  const auto spec = obs::HistogramSpec::latency_us();
  ASSERT_EQ(spec.buckets, 64);
  // The server's historic bucket function, verbatim.
  auto legacy_bucket = [](double us) {
    if (us <= 1.0) return 0;
    int idx = static_cast<int>(4.0 * std::log2(us / 1.0));
    if (idx < 0) idx = 0;
    if (idx > 63) idx = 63;
    return idx;
  };
  auto legacy_rep = [](int idx) {
    return std::exp2((static_cast<double>(idx) + 0.5) / 4.0);
  };
  for (double us : {0.2, 1.0, 1.5, 3.0, 47.0, 1000.0, 12345.6, 1e9}) {
    EXPECT_EQ(spec.bucket(us), legacy_bucket(us)) << "us=" << us;
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(spec.representative(i), legacy_rep(i)) << "bucket " << i;
  }

  // Percentile fold: representative of the bucket where the cumulative
  // count first reaches q*total — exactly the historic behavior.
  obs::Registry reg;
  obs::Histogram* h = reg.histogram("t_lat2_us", "latency", spec);
  for (int i = 0; i < 90; ++i) h->observe(10.0);
  for (int i = 0; i < 10; ++i) h->observe(5000.0);
  const auto snap = h->snapshot();
  EXPECT_EQ(snap.percentile(0.5), legacy_rep(legacy_bucket(10.0)));
  EXPECT_EQ(snap.percentile(0.99), legacy_rep(legacy_bucket(5000.0)));
  obs::Histogram* empty = reg.histogram("t_lat3_us", "latency", spec);
  EXPECT_EQ(empty->snapshot().percentile(0.5), 0.0);
}

TEST(ObsRegistry, LinearSpecMatchesBatchHistogram) {
  const auto spec = obs::HistogramSpec::linear(16, 1.0, 1.0);
  // Legacy batch histogram: bucket = min(B, 16) - 1.
  for (int b = 1; b <= 40; ++b) {
    EXPECT_EQ(spec.bucket(static_cast<double>(b)), std::min(b, 16) - 1)
        << "B=" << b;
  }
}

TEST(ObsRegistry, RegistrationIsIdempotentAndLabeled) {
  obs::Registry reg;
  obs::Counter* a = reg.counter("t_total", "help", "site", "x");
  obs::Counter* b = reg.counter("t_total", "help", "site", "x");
  obs::Counter* other = reg.counter("t_total", "help", "site", "y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->inc(5);
  other->inc(7);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].value + snap.counters[1].value, 12);
}

TEST(ObsRegistry, ExpositionFormatsCoverAllInstrumentKinds) {
  obs::Registry reg;
  reg.counter("t_events_total", "total events")->inc(42);
  reg.gauge("t_depth", "queue depth")->set(3.5);
  reg.gauge_fn("t_lazy", "lazy gauge", [] { return 9.0; });
  obs::Histogram* h = reg.histogram("t_batch", "batch sizes",
                                    obs::HistogramSpec::linear(4, 1.0, 1.0),
                                    "stage", "pack");
  h->observe(2.0);
  h->observe(2.0);
  reg.collector([](obs::RegistrySnapshot& out) {
    obs::CounterSnapshot c;
    c.name = "t_collected_total";
    c.help = "from a collector";
    c.value = 11;
    out.counters.push_back(c);
  });

  const auto snap = reg.snapshot();
  const std::string text = snap.to_prometheus();
  EXPECT_NE(text.find("# TYPE t_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("t_events_total 42"), std::string::npos);
  EXPECT_NE(text.find("t_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("t_lazy 9"), std::string::npos);
  EXPECT_NE(text.find("t_batch_bucket{"), std::string::npos);
  EXPECT_NE(text.find("t_batch_count"), std::string::npos);
  EXPECT_NE(text.find("t_batch_sum"), std::string::npos);
  EXPECT_NE(text.find("stage=\"pack\""), std::string::npos);
  EXPECT_NE(text.find("t_collected_total 11"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"t_events_total\""), std::string::npos);
  EXPECT_NE(json.find("\"t_collected_total\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace recorder primitives
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledRecorderHandsOutNoIds) {
  TraceGuard guard;
  obs::TraceRecorder::instance().configure(obs::TraceConfig{});
  EXPECT_EQ(obs::TraceRecorder::instance().begin_trace(), 0u);
  // ScopedSpan on an unbound thread is a no-op even when enabled.
  obs::TraceConfig on;
  on.enabled = true;
  obs::TraceRecorder::instance().configure(on);
  obs::TraceRecorder::instance().clear();
  EXPECT_EQ(obs::current_trace(), 0u);
  { obs::ScopedSpan s("unit.noop"); }
  EXPECT_TRUE(obs::TraceRecorder::instance().spans().empty());
}

TEST(ObsTrace, ScopedSpansAttachToTheAmbientTrace) {
  TraceGuard guard;
  obs::TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_spans = 64;
  obs::TraceRecorder::instance().configure(cfg);
  obs::TraceRecorder::instance().clear();

  const uint64_t id = obs::TraceRecorder::instance().begin_trace();
  ASSERT_NE(id, 0u);
  {
    obs::TraceBinding bind(id);
    obs::ScopedSpan s("unit.stage");
    s.set_flags(obs::kDegraded);
    s.set_extra(17);
  }
  const auto spans = obs::TraceRecorder::instance().spans_for(id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].stage, "unit.stage");
  EXPECT_EQ(spans[0].flags & obs::kDegraded, uint32_t{obs::kDegraded});
  EXPECT_EQ(spans[0].extra, 17);
  EXPECT_GE(spans[0].end_us, spans[0].start_us);
  EXPECT_NE(obs::TraceRecorder::instance().dump_json().find("unit.stage"),
            std::string::npos);
}

TEST(ObsTrace, RingRetainsOnlyTheConfiguredSpanCount) {
  TraceGuard guard;
  obs::TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_spans = 8;
  obs::TraceRecorder::instance().configure(cfg);
  obs::TraceRecorder::instance().clear();
  // Record on a fresh thread so the small ring size applies to its ring.
  std::thread([&] {
    obs::TraceBinding bind(obs::TraceRecorder::instance().begin_trace());
    for (int i = 0; i < 32; ++i) obs::ScopedSpan s("unit.wrap");
  }).join();
  EXPECT_LE(obs::TraceRecorder::instance().spans().size(), 8u);
}

// ---------------------------------------------------------------------------
// Stage profiler
// ---------------------------------------------------------------------------

TEST(ObsTrace, RingEnvKnobParsesAWholeBoundedInteger) {
  coastal::testing::ScopedEnv ring("COASTAL_TRACE_RING", "64");
  EXPECT_EQ(obs::trace_config_from_env({}).ring_spans, 64);
  ring.set(nullptr);
  EXPECT_EQ(obs::trace_config_from_env({}).ring_spans,
            obs::TraceConfig{}.ring_spans);
  for (const char* bad :
       {"0", "-3", "4k", "lots", "1048577", "2147483648"}) {
    SCOPED_TRACE(bad);
    ring.set(bad);
    coastal::testing::expect_check_error_naming(
        [] { obs::trace_config_from_env({}); }, "COASTAL_TRACE_RING");
  }
}

TEST(ObsProfiler, ScopedStagesFeedPerStageHistograms) {
  auto& prof = obs::StageProfiler::instance();
  const bool was = prof.enabled();
  prof.set_enabled(true);
  prof.reset();
  {
    obs::ScopedStage s(obs::Stage::kVerify);
  }
  { obs::ScopedStage s(obs::Stage::kVerify); }
  EXPECT_EQ(prof.snapshot(obs::Stage::kVerify).total, 2u);
  EXPECT_EQ(prof.snapshot(obs::Stage::kGemm).total, 0u);

  obs::RegistrySnapshot out;
  prof.collect(out);
  bool saw_verify = false;
  for (const auto& h : out.histograms) {
    EXPECT_EQ(h.name, "coastal_stage_duration_us");
    if (h.label_value == obs::stage_name(obs::Stage::kVerify)) {
      saw_verify = true;
    }
  }
  EXPECT_TRUE(saw_verify) << "collect() must export non-empty stages";

  prof.set_enabled(false);
  prof.reset();
  { obs::ScopedStage s(obs::Stage::kVerify); }
  EXPECT_EQ(prof.snapshot(obs::Stage::kVerify).total, 0u)
      << "disabled scopes must not record";
  prof.set_enabled(was);
}

// ---------------------------------------------------------------------------
// Fault-site cumulative stats
// ---------------------------------------------------------------------------

TEST(ObsFault, CumulativeStatsSurviveScheduleTeardown) {
  FaultGuard guard;
  auto& inj = util::FaultInjector::instance();
  inj.install("obs.cumulative:drop@1x2");
  for (int i = 0; i < 3; ++i) {
    (void)util::fault_point("obs.cumulative");
  }
  EXPECT_EQ(inj.site_stats("obs.cumulative").hits, 3u);
  EXPECT_EQ(inj.site_stats("obs.cumulative").fires, 2u);

  inj.clear();
  EXPECT_EQ(inj.site_stats("obs.cumulative").hits, 0u)
      << "per-schedule stats reset on clear";
  const auto cum = inj.cumulative_stats();
  auto it = cum.find("obs.cumulative");
  ASSERT_NE(it, cum.end()) << "cumulative view must survive clear()";
  EXPECT_EQ(it->second.hits, 3u);
  EXPECT_EQ(it->second.fires, 2u);
}

// ---------------------------------------------------------------------------
// Server integration
// ---------------------------------------------------------------------------

TEST(ObsServer, OneSnapshotUnifiesServerCacheFaultAndStageMetrics) {
  FaultGuard guard;
  TraceGuard trace_guard;
  auto& w = ObsWorld::instance();
  // Transient forward faults recovered by retries: the snapshot must
  // show serve counters, cache counters, retry/fault-site counters, and
  // the stage-duration histograms in ONE exposition.
  util::FaultInjector::instance().install("serve.forward:throw@1x2");
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 50000;
  cfg.threshold = 10.0;
  cfg.reliability.retry.max_attempts = 4;
  cfg.reliability.retry.backoff_us = 200;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  std::vector<std::future<serve::ForecastResult>> futures;
  for (size_t i = 0; i < 4; ++i) {
    auto f = server.submit(w.request(i));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) f.get();

  const auto stats = server.stats();
  EXPECT_EQ(stats.served, 4u);
  EXPECT_GT(stats.retries, 0u);

  const std::string text = server.metrics_text();
  EXPECT_NE(text.find("coastal_serve_served_total 4"), std::string::npos);
  EXPECT_NE(text.find("coastal_serve_submitted_total"), std::string::npos);
  EXPECT_NE(text.find("coastal_serve_retries_total"), std::string::npos);
  EXPECT_NE(text.find("coastal_serve_latency_us_count"), std::string::npos);
  EXPECT_NE(text.find("coastal_cache_misses_total"), std::string::npos);
  EXPECT_NE(text.find("coastal_fault_hits_total"), std::string::npos);
  EXPECT_NE(text.find("site=\"serve.forward\""), std::string::npos);
  EXPECT_NE(text.find("coastal_stage_duration_us"), std::string::npos);
  EXPECT_NE(text.find("stage=\"forward\""), std::string::npos);

  // The stats() compatibility view and the registry agree.
  bool found = false;
  for (const auto& c : server.metrics().snapshot().counters) {
    if (c.name == "coastal_serve_served_total") {
      EXPECT_EQ(c.value, static_cast<int64_t>(stats.served));
      found = true;
    }
  }
  EXPECT_TRUE(found);
  const std::string json = server.metrics_json();
  EXPECT_NE(json.find("coastal_serve_served_total"), std::string::npos);
}

TEST(ObsServer, TracedFaultyRequestYieldsTaggedSpanTree) {
  FaultGuard guard;
  TraceGuard trace_guard;
  auto& w = ObsWorld::instance();
  util::FaultInjector::instance().install("serve.forward:throw@1x1");
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 2;
  cfg.batch.max_wait_us = 20000;
  cfg.threshold = 10.0;
  cfg.reliability.retry.max_attempts = 3;
  cfg.reliability.retry.backoff_us = 200;
  cfg.obs.trace.enabled = true;
  cfg.obs.trace.sample_rate = 1.0;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  obs::TraceRecorder::instance().clear();

  auto f = server.submit(w.request(0));
  ASSERT_TRUE(f.has_value());
  serve::ForecastResult r = f->get();
  EXPECT_TRUE(r.verified);
  server.shutdown();  // drain so every span of the request is recorded

  const auto by_trace = spans_by_trace();
  ASSERT_EQ(by_trace.size(), 1u) << "one traced request, one span tree";
  const auto& spans = by_trace.begin()->second;
  // The acceptance shape: queue -> triage -> forward -> verify ->
  // resolve under a root "request" span, with the fault visible as a
  // retry tag on the forward span.
  EXPECT_TRUE(has_stage(spans, "queue"));
  EXPECT_TRUE(has_stage(spans, "triage"));
  EXPECT_TRUE(has_stage(spans, "pack"));
  EXPECT_TRUE(has_stage(spans, "forward", obs::kFaultRetry));
  EXPECT_TRUE(has_stage(spans, "verify"));
  EXPECT_TRUE(has_stage(spans, "resolve"));
  EXPECT_TRUE(has_stage(spans, "request"));
  for (const auto& s : spans) {
    if (std::strcmp(s.stage, "request") == 0) {
      for (const auto& t : spans) {
        EXPECT_GE(t.start_us, s.start_us) << t.stage;
        EXPECT_LE(t.end_us, s.end_us) << t.stage;
      }
    }
    if (std::strcmp(s.stage, "forward") == 0) {
      EXPECT_GE(s.extra, 1) << "forward span carries the batch size";
    }
  }
  const std::string json = obs::TraceRecorder::instance().dump_json();
  EXPECT_NE(json.find("\"traces\""), std::string::npos);
  EXPECT_NE(json.find("\"forward\""), std::string::npos);
}

TEST(ObsServer, ErroredRequestResolvesWithErrorTaggedSpans) {
  TraceGuard trace_guard;
  auto& w = ObsWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 2;
  cfg.batch.max_wait_us = 2000;
  cfg.threshold = 10.0;
  cfg.obs.trace.enabled = true;
  cfg.obs.trace.sample_rate = 1.0;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  obs::TraceRecorder::instance().clear();

  serve::ForecastRequest req = w.request(0);
  req.timeout_us = 1;  // already expired by the time a worker pops it
  auto f = server.submit(std::move(req));
  ASSERT_TRUE(f.has_value());
  EXPECT_THROW(f->get(), serve::ForecastError);
  server.shutdown();

  bool saw_error_resolve = false;
  for (const auto& s : obs::TraceRecorder::instance().spans()) {
    if (std::strcmp(s.stage, "resolve") == 0 && (s.flags & obs::kError)) {
      EXPECT_GE(s.code, 0) << "error spans carry the ForecastError code";
      saw_error_resolve = true;
    }
  }
  EXPECT_TRUE(saw_error_resolve);
}

TEST(ObsServer, CacheHitSpansSkipTheForwardStage) {
  TraceGuard trace_guard;
  auto& w = ObsWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 2;
  cfg.batch.max_wait_us = 2000;
  cfg.threshold = 10.0;
  cfg.obs.trace.enabled = true;
  cfg.obs.trace.sample_rate = 1.0;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);

  auto first = server.submit(w.request(1));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->get().cache_hit);

  auto second = server.submit(w.request(1));
  ASSERT_TRUE(second.has_value());
  serve::ForecastResult r = second->get();
  EXPECT_TRUE(r.cache_hit);
  server.shutdown();

  // Find the cache-hit trace: its resolve span is tagged kCacheHit and
  // the tree must contain NO forward (or pack) stage — no surrogate ran.
  bool found_hit_trace = false;
  for (const auto& [id, spans] : spans_by_trace()) {
    if (!has_stage(spans, "resolve", obs::kCacheHit)) continue;
    found_hit_trace = true;
    EXPECT_FALSE(has_stage(spans, "forward"));
    EXPECT_FALSE(has_stage(spans, "pack"));
    EXPECT_TRUE(has_stage(spans, "queue"));
    EXPECT_TRUE(has_stage(spans, "triage", obs::kCacheHit));
    EXPECT_TRUE(has_stage(spans, "request"));
  }
  EXPECT_TRUE(found_hit_trace);
}

TEST(ObsServer, ServedFramesBitwiseInvariantUnderObservability) {
  TraceGuard trace_guard;
  auto& w = ObsWorld::instance();
  const auto serial = w.serial_episode(2);

  auto serve_once = [&](bool obs_on) {
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.batch.max_batch = 2;
    cfg.batch.max_wait_us = 2000;
    cfg.threshold = 10.0;
    cfg.obs.profile_stages = obs_on;
    cfg.obs.trace.enabled = obs_on;
    cfg.obs.trace.sample_rate = 1.0;
    serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                                 cfg);
    auto f = server.submit(w.request(2));
    EXPECT_TRUE(f.has_value());
    return f->get().frames;
  };

  const auto frames_off = serve_once(false);
  const auto frames_on = serve_once(true);
  expect_frames_bitwise(frames_off, serial);
  expect_frames_bitwise(frames_on, serial);
}

TEST(ObsServer, SteadyStateServingWithObsOnAllocatesNothing) {
  if (!tensor::pool_enabled()) {
    GTEST_SKIP() << "pool disabled (COASTAL_DISABLE_POOL): every tensor is "
                    "a real allocation by design";
  }
  TraceGuard trace_guard;
  auto& w = ObsWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 100000;
  cfg.threshold = 10.0;
  cfg.cache.enabled = false;  // the forward path, not the cache path
  cfg.obs.profile_stages = true;
  cfg.obs.trace.enabled = true;
  cfg.obs.trace.sample_rate = 1.0;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  auto round = [&] {
    std::vector<std::future<serve::ForecastResult>> futures;
    for (size_t i = 0; i < 4; ++i) {
      auto f = server.submit(w.request(i));
      ASSERT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    for (auto& f : futures) f.get();
  };
  // Warm the pool, the arenas, the workspaces, AND the per-thread trace
  // rings (a ring is allocated at a thread's first recorded span).
  round();
  round();
  const uint64_t before = tensor::alloc_stats().total_allocs;
  round();
  round();
  round();
  const uint64_t after = tensor::alloc_stats().total_allocs;
  EXPECT_EQ(after, before) << "metrics + tracing must not allocate in "
                              "steady state";
}
