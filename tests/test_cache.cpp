/// Forecast-cache tests: exact hits bitwise-equal to cold recomputes
/// across kernel thread counts, prefix resume bitwise-equal to a full
/// rollout (frames AND verdict), LRU eviction order with exact byte
/// accounting, a forced digest collision (a miss, then a displacement),
/// the env knobs, the no-admission rules for faulted / fallback
/// results, the zero-allocation pin on the hit path, and hits resolved at
/// admission (inside submit(), with no worker) — including their limits:
/// a closed queue still rejects, an open breaker still degrades, and every
/// request still counts exactly one outcome.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/rollout.hpp"
#include "core/verification.hpp"
#include "data/dataset.hpp"
#include "data/normalization.hpp"
#include "ocean/archive.hpp"
#include "ocean/bathymetry.hpp"
#include "serve/cache.hpp"
#include "serve/server.hpp"
#include "tensor/storage.hpp"
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
/// untrained surrogate.  Cache correctness is about byte identity and
/// bookkeeping, not skill.
struct CacheWorld {
  ocean::Grid grid{20, 20, 6, 400.0, 400.0};
  ocean::TidalForcing tides = ocean::TidalForcing::gulf_coast_default();
  ocean::PhysicsParams params;
  std::vector<data::CenterFields> fields;       // denormalized
  std::vector<data::CenterFields> fields_norm;  // normalized
  data::Normalizer norm;
  data::SampleSpec spec;
  std::unique_ptr<core::SurrogateModel> model;

  CacheWorld() {
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

  static CacheWorld& instance() {
    static CacheWorld w;
    return w;
  }

  /// Request whose chain starts at archive frame `start`.
  serve::ForecastRequest request(size_t start, int episodes = 1) const {
    serve::ForecastRequest r;
    r.model_id = 0;
    const size_t frames = static_cast<size_t>(episodes * spec.T) + 1;
    r.window.assign(fields_norm.begin() + static_cast<ptrdiff_t>(start),
                    fields_norm.begin() + static_cast<ptrdiff_t>(start + frames));
    return r;
  }

  std::span<const data::CenterFields> window(size_t start,
                                             int episodes = 1) const {
    return {fields_norm.data() + start,
            static_cast<size_t>(episodes * spec.T) + 1};
  }

  serve::ServerConfig config() const {
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.batch.max_batch = 4;
    cfg.batch.max_wait_us = 1000;
    cfg.threshold = 10.0;
    return cfg;
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

serve::ForecastResult serve_one(serve::ForecastServer& server,
                                serve::ForecastRequest req) {
  auto f = server.submit(std::move(req));
  EXPECT_TRUE(f.has_value());
  return f->get();
}

/// Payload bytes one cached entry of `episodes` episodes accounts for:
/// (window + result frames) * floats-per-frame * 4.
uint64_t entry_bytes(const data::SampleSpec& spec, int episodes) {
  const uint64_t n3 = static_cast<uint64_t>(spec.src_nz) * spec.src_ny *
                      spec.src_nx;
  const uint64_t n2 = static_cast<uint64_t>(spec.src_ny) * spec.src_nx;
  const uint64_t ff = 3 * n3 + n2;
  const uint64_t frames = static_cast<uint64_t>(episodes) * spec.T;
  return (2 * frames + 1) * ff * sizeof(float);
}

}  // namespace

TEST(ForecastCache, ExactHitBitwiseAcrossKernelThreadCounts) {
  auto& w = CacheWorld::instance();
  coastal::testing::KernelConfigOverride kco;

  // Cold recompute under 1 kernel thread...
  tensor::kernels::config().num_threads = 1;
  std::vector<data::CenterFields> cold1;
  {
    serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                                 w.config());
    cold1 = serve_one(server, w.request(0)).frames;
  }
  // ...and a cold fill + warm hit under 2 kernel threads.
  tensor::kernels::config().num_threads = 2;
  {
    serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                                 w.config());
    const auto cold2 = serve_one(server, w.request(0));
    EXPECT_FALSE(cold2.cache_hit);
    const auto hit = serve_one(server, w.request(0));
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.batch_size, 0);
    EXPECT_TRUE(hit.verified);
    // Hit == recompute, and both == the 1-thread recompute: the cache
    // rides on (and re-pins) kernel batch/thread invariance.
    expect_frames_bitwise(cold2.frames, cold1);
    expect_frames_bitwise(hit.frames, cold1);
    ASSERT_EQ(hit.verdict.mean_residual, cold2.verdict.mean_residual);
    ASSERT_EQ(hit.verdict.max_residual, cold2.verdict.max_residual);
    ASSERT_EQ(hit.verdict.pass, cold2.verdict.pass);
    const auto stats = server.stats();
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_inserts, 1u);
  }
}

TEST(ForecastCache, PrefixResumeMatchesFullRolloutBitwise) {
  auto& w = CacheWorld::instance();
  const int episodes = 2;
  // Full-chain reference (frames and verdict), computed cold.
  std::vector<data::CenterFields> ref = core::rollout(
      *w.model, w.spec, w.norm, w.window(0, episodes), episodes);
  core::MassVerifier verifier(w.grid, /*threshold=*/10.0);
  std::vector<data::CenterFields> seq;
  // The server anchors verification on denormalized_copy(window.front()),
  // not the raw archive frame — match it for the bitwise verdict compare.
  seq.push_back(data::denormalized_copy(w.fields_norm[0], w.norm));
  for (const auto& f : ref) seq.push_back(f);
  const auto ref_verdict = verifier.check_sequence(seq, 1800.0);

  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               w.config());
  // Warm with the 1-episode prefix, then ask for the 2-episode chain.
  const auto prefix = serve_one(server, w.request(0, 1));
  EXPECT_FALSE(prefix.cache_hit);
  const auto resumed = serve_one(server, w.request(0, episodes));
  EXPECT_FALSE(resumed.cache_hit);
  EXPECT_EQ(resumed.resumed_frames, w.spec.T);
  ASSERT_EQ(resumed.frames.size(), static_cast<size_t>(episodes * w.spec.T));
  expect_frames_bitwise(resumed.frames, ref);
  // The extended verdict must be bitwise the single-pass verdict.
  ASSERT_TRUE(resumed.verified);
  ASSERT_EQ(resumed.verdict.mean_residual, ref_verdict.mean_residual);
  ASSERT_EQ(resumed.verdict.max_residual, ref_verdict.max_residual);
  ASSERT_EQ(resumed.verdict.pass, ref_verdict.pass);

  auto stats = server.stats();
  EXPECT_EQ(stats.cache_prefix_hits, 1u);
  // The resumed chain was itself admitted under its full key: asking for
  // the chain again is now an exact hit.
  const auto hit = serve_one(server, w.request(0, episodes));
  EXPECT_TRUE(hit.cache_hit);
  expect_frames_bitwise(hit.frames, ref);
}

TEST(ForecastCache, LruEvictionOrderAndExactByteAccounting) {
  auto& w = CacheWorld::instance();
  const uint64_t one = entry_bytes(w.spec, 1);
  serve::CachePolicy policy;
  policy.max_bytes = 2 * one;  // room for exactly two entries
  serve::ForecastCache cache(policy);

  core::VerificationResult verdict;
  verdict.pass = true;
  auto result_frames = [&](size_t start) {
    // Any finite frames work as a stand-in payload.
    return std::vector<data::CenterFields>(
        w.fields.begin() + static_cast<ptrdiff_t>(start + 1),
        w.fields.begin() + static_cast<ptrdiff_t>(start + 4));
  };
  auto insert = [&](serve::ForecastCache& c, size_t start) {
    c.insert(serve::ForecastCache::key(0, 0, w.spec, w.window(start)),
             w.window(start), result_frames(start), verdict, true);
  };
  auto hit = [&](size_t start, int version = 0) {
    return cache
        .probe(serve::ForecastCache::key(0, version, w.spec, w.window(start)),
               w.window(start))
        .hit;
  };
  insert(cache, 0);
  EXPECT_EQ(cache.stats().bytes, one);
  insert(cache, 1);
  EXPECT_EQ(cache.stats().bytes, 2 * one);
  EXPECT_EQ(cache.stats().entries, 2u);

  // Touch entry 0 so entry 1 is the LRU victim of the next insert.
  EXPECT_TRUE(hit(0));
  insert(cache, 2);
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 2 * one);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_TRUE(hit(0));
  EXPECT_FALSE(hit(1));  // evicted
  EXPECT_TRUE(hit(2));

  // Version mismatch is a miss: bumping ModelSlot::version invalidates.
  EXPECT_FALSE(hit(0, /*version=*/1));

  // An entry larger than the whole budget is refused, not thrashed.
  serve::CachePolicy tiny;
  tiny.max_bytes = one - 1;
  serve::ForecastCache small(tiny);
  insert(small, 0);
  EXPECT_EQ(small.stats().entries, 0u);
  EXPECT_EQ(small.stats().rejected, 1u);

  // clear() drops content but keeps cumulative counters.
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ForecastCache, DigestCollisionIsAMissAndDisplacesOnInsert) {
  // Hash as index, bytes as proof: force a collision by keying window B
  // with window A's digests.
  auto& w = CacheWorld::instance();
  serve::ForecastCache cache(serve::CachePolicy{});
  core::VerificationResult verdict;
  verdict.pass = true;
  auto result_frames = [&](size_t start) {
    return std::vector<data::CenterFields>(
        w.fields.begin() + static_cast<ptrdiff_t>(start + 1),
        w.fields.begin() + static_cast<ptrdiff_t>(start + 1 + w.spec.T));
  };
  const auto win_a = w.window(0);
  const auto win_b = w.window(1);
  const auto key_a = serve::ForecastCache::key(0, 0, w.spec, win_a);
  ASSERT_NE(key_a.digests.back(),
            serve::ForecastCache::key(0, 0, w.spec, win_b).digests.back());
  cache.insert(key_a, win_a, result_frames(0), verdict, true);
  ASSERT_TRUE(cache.probe(key_a, win_a).hit);

  // B probed under A's digest: the byte compare refuses A's entry.
  const auto miss = cache.probe(key_a, win_b);
  EXPECT_FALSE(miss.hit);
  EXPECT_FALSE(miss.prefix);
  EXPECT_TRUE(miss.frames.empty());
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);

  // B inserted under A's digest displaces A.
  cache.insert(key_a, win_b, result_frames(1), verdict, true);
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_FALSE(cache.probe(key_a, win_a).hit);
  EXPECT_EQ(cache.stats().misses, 2u);
  const auto hit_b = cache.probe(key_a, win_b);
  ASSERT_TRUE(hit_b.hit);
  expect_frames_bitwise(hit_b.frames, result_frames(1));
}

TEST(ForecastCache, EnvKnobsParseWholeBoundedIntegers) {
  using coastal::testing::ScopedEnv;
  using coastal::testing::expect_check_error_naming;
  ScopedEnv bytes("COASTAL_CACHE_BYTES", "1048576");
  serve::CachePolicy p = serve::cache_policy_from_env({});
  EXPECT_EQ(p.max_bytes, 1048576u);
  // Empty means unset: the base value stands.
  bytes.set("");
  p = serve::cache_policy_from_env({});
  EXPECT_EQ(p.max_bytes, serve::CachePolicy{}.max_bytes);
  // Garbage, trailing text, negatives and out-of-range values are typed
  // errors naming the variable, never a silent 0 or a wrapped value.
  for (const char* bad : {"abc", "12MB", "-1", " ", "1099511627777",
                          "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    bytes.set(bad);
    expect_check_error_naming([] { serve::cache_policy_from_env({}); },
                              "COASTAL_CACHE_BYTES");
  }
}

TEST(ForecastCache, CacheEnvFlagIsZeroOrOne) {
  // Only parsed: `false` or `off` must not turn the cache on.
  using coastal::testing::ScopedEnv;
  ScopedEnv flag("COASTAL_CACHE", nullptr);
  serve::CachePolicy off;
  off.enabled = false;
  EXPECT_FALSE(serve::cache_policy_from_env(off).enabled);  // unset
  flag.set("");
  EXPECT_TRUE(serve::cache_policy_from_env({}).enabled);  // empty = unset
  flag.set("0");
  EXPECT_FALSE(serve::cache_policy_from_env({}).enabled);
  flag.set("1");
  EXPECT_TRUE(serve::cache_policy_from_env(off).enabled);
  for (const char* bad : {"false", "off", "true", "2", "01", " 1"}) {
    SCOPED_TRACE(bad);
    flag.set(bad);
    coastal::testing::expect_check_error_naming(
        [] { serve::cache_policy_from_env({}); }, "COASTAL_CACHE");
  }
}

TEST(ForecastCache, FaultedAndFallbackResultsAreNeverAdmitted) {
  auto& w = CacheWorld::instance();
  FaultGuard guard;
  serve::ServerConfig cfg = w.config();
  cfg.fallback = serve::FallbackContext{w.tides, w.params};
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);

  // A NaN-poisoned episode fails verification, falls back to the
  // numerical model — and that result must never enter the cache.
  util::FaultInjector::instance().install("rollout.step:nan@1x1");
  const auto faulted = serve_one(server, w.request(0));
  EXPECT_TRUE(faulted.fallback);
  util::FaultInjector::instance().clear();
  EXPECT_EQ(server.stats().cache_inserts, 0u);
  // Re-asking must recompute (miss), not serve the fallback frames.
  const auto clean = serve_one(server, w.request(0));
  EXPECT_FALSE(clean.cache_hit);
  EXPECT_FALSE(clean.fallback);
  EXPECT_EQ(server.stats().cache_inserts, 1u);

  // Direct-API last line of defense: an unverified non-finite payload is
  // rejected even if a buggy caller tries to admit it.
  serve::ForecastCache cache(serve::CachePolicy{});
  std::vector<data::CenterFields> poisoned(
      w.fields.begin() + 1, w.fields.begin() + 1 + w.spec.T);
  poisoned[0].u[0] = std::numeric_limits<float>::quiet_NaN();
  cache.insert(serve::ForecastCache::key(0, 0, w.spec, w.window(0)),
               w.window(0), poisoned, core::VerificationResult{},
               /*verified=*/false);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST(ForecastCache, HitPathAllocatesNothing) {
  if (!tensor::pool_enabled()) {
    GTEST_SKIP() << "pool disabled (COASTAL_DISABLE_POOL): every tensor is "
                    "a real allocation by design";
  }
  auto& w = CacheWorld::instance();
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               w.config());
  // Fill, then warm the hit path once (promise/future plumbing and the
  // probe's scratch vectors are plain memory, not tracked tensor heap).
  serve_one(server, w.request(0));
  const auto warm = serve_one(server, w.request(0));
  ASSERT_TRUE(warm.cache_hit);
  const uint64_t before = tensor::alloc_stats().total_allocs;
  for (int i = 0; i < 8; ++i) {
    const auto hit = serve_one(server, w.request(0));
    ASSERT_TRUE(hit.cache_hit);
  }
  const uint64_t after = tensor::alloc_stats().total_allocs;
  EXPECT_EQ(after, before)
      << "cache hits must not touch the tensor heap: the stored frames "
         "live in pooled Storage and are copied into plain vectors";
}

TEST(ForecastCache, AdmissionHitResolvesWhileEveryWorkerIsParked) {
  auto& w = CacheWorld::instance();
  FaultGuard guard;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               w.config());
  const auto cold = serve_one(server, w.request(0));
  ASSERT_FALSE(cold.cache_hit);

  // Park the only worker on a cold window's batch.
  auto& faults = util::FaultInjector::instance();
  faults.install("serve.worker:hang");
  auto parked = server.submit(w.request(1));
  ASSERT_TRUE(parked.has_value());
  for (int i = 0; i < 10000 && faults.parked() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(faults.parked(), 1) << "the worker never reached serve.worker";

  // The cached window resolves inside submit(): its future is ready the
  // moment submit() returns, though no worker can run.
  auto hit_future = server.submit(w.request(0));
  ASSERT_TRUE(hit_future.has_value());
  ASSERT_EQ(hit_future->wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const auto hit = hit_future->get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.batch_size, 0);
  EXPECT_EQ(hit.sharers, 1);
  EXPECT_EQ(hit.queue_seconds, 0.0);
  expect_frames_bitwise(hit.frames, cold.frames);
  ASSERT_EQ(hit.verified, cold.verified);
  ASSERT_EQ(hit.verdict.mean_residual, cold.verdict.mean_residual);
  ASSERT_EQ(hit.verdict.max_residual, cold.verdict.max_residual);
  ASSERT_EQ(hit.verdict.pass, cold.verdict.pass);

  faults.clear();  // wakes the parked worker
  EXPECT_FALSE(parked->get().cache_hit);
  const auto stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.served, 3u);
}

TEST(ForecastCache, SubmitAfterShutdownRejectsACachedWindow) {
  auto& w = CacheWorld::instance();
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               w.config());
  serve_one(server, w.request(0));
  server.shutdown();
  EXPECT_FALSE(server.submit(w.request(0)).has_value())
      << "a closed server serves nothing, cached or not";
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(ForecastCache, OpenBreakerServesACachedWindowDegraded) {
  auto& w = CacheWorld::instance();
  FaultGuard guard;
  serve::ServerConfig cfg = w.config();
  cfg.batch.max_batch = 1;
  cfg.fallback = serve::FallbackContext{w.tides, w.params};
  cfg.reliability.retry.max_attempts = 1;
  cfg.reliability.breaker.window = 4;
  cfg.reliability.breaker.min_samples = 2;
  cfg.reliability.breaker.trip_rate = 0.5;
  cfg.reliability.breaker.cooldown_us = 60'000'000;  // stays open
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  ASSERT_FALSE(serve_one(server, w.request(0)).cache_hit);  // cached

  // Two failed forwards trip the breaker.
  util::FaultInjector::instance().install("serve.forward:throw@1x2");
  serve_one(server, w.request(1));
  serve_one(server, w.request(2));
  util::FaultInjector::instance().clear();
  ASSERT_EQ(server.stats().breaker_open_slots, 1);

  // The open slot must take the numerical route, even for a window the
  // cache holds: the admission probe is skipped, not just the worker's.
  const auto r = serve_one(server, w.request(0));
  EXPECT_FALSE(r.cache_hit);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.fallback);
  EXPECT_EQ(server.stats().cache_hits, 0u);
}

TEST(ForecastCache, MixedStreamCountsOneOutcomePerProbedRequest) {
  auto& w = CacheWorld::instance();
  // Serial references for every (start, episodes) the stream asks for.
  constexpr size_t kStarts = 5;
  std::map<std::pair<size_t, int>, std::vector<data::CenterFields>> ref;
  for (size_t s = 0; s < kStarts; ++s) {
    for (int e = 1; e <= 2; ++e) {
      ref[{s, e}] = core::rollout(*w.model, w.spec, w.norm, w.window(s, e), e);
    }
  }
  serve::ServerConfig cfg = w.config();
  cfg.workers = 2;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  // Warm a few 1-episode windows: the stream then mixes admission hits,
  // worker hits, misses, in-flight duplicates and prefix resumes.
  serve_one(server, w.request(0));
  serve_one(server, w.request(2));

  constexpr int kClients = 3, kPerClient = 12;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::pair<std::pair<size_t, int>,
                                    std::future<serve::ForecastResult>>>>
      sent(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kPerClient; ++k) {
        const size_t start = static_cast<size_t>(k * 7 + c * 3) % kStarts;
        const int episodes = k % 3 == 0 ? 2 : 1;
        auto f = server.submit(w.request(start, episodes));
        ASSERT_TRUE(f.has_value());
        sent[c].emplace_back(std::make_pair(start, episodes), std::move(*f));
      }
    });
  }
  for (auto& t : clients) t.join();
  for (auto& client : sent) {
    for (auto& [key, f] : client) {
      expect_frames_bitwise(f.get().frames, ref.at(key));
    }
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u + kClients * kPerClient);
  EXPECT_EQ(stats.served + stats.failed + stats.rejected, stats.submitted);
  // One counted probe outcome per request that was not served by sharing
  // a coalesced entry: an admission miss goes uncounted, so the worker's
  // probe of that request is its only outcome.
  EXPECT_EQ(stats.cache_hits + stats.cache_prefix_hits + stats.cache_misses +
                stats.coalesced,
            stats.submitted);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GE(stats.cache_prefix_hits, 1u);
  EXPECT_GT(stats.cache_misses, 0u);
}

TEST(ForecastCache, ChainsStackIntoOneForwardPerEpisodeStep) {
  auto& w = CacheWorld::instance();
  FaultGuard guard;
  constexpr int kEpisodes = 2;
  // Three cold 2-episode chains plus one whose first episode is cached.
  const std::vector<size_t> starts = {0, 1, 2, 3};
  const size_t resumed_start = 3;
  core::MassVerifier verifier(w.grid, /*threshold=*/10.0);
  std::vector<std::vector<data::CenterFields>> ref;
  std::vector<core::VerificationResult> ref_verdict;
  for (size_t s : starts) {
    ref.push_back(core::rollout(*w.model, w.spec, w.norm,
                                w.window(s, kEpisodes), kEpisodes));
    ref_verdict.push_back(verifier.check_sequence(
        data::denormalized_copy(w.fields_norm[s], w.norm), ref.back(),
        1800.0));
  }

  serve::ServerConfig cfg = w.config();
  cfg.batch.max_batch = static_cast<int>(starts.size());
  cfg.batch.max_wait_us = 500000;  // the four chains form one batch
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  ASSERT_FALSE(serve_one(server, w.request(resumed_start, 1)).cache_hit);

  // A schedule that never fires, armed only to count serve.forward hits.
  util::FaultInjector::instance().install("serve.forward:throw@0");
  std::vector<std::future<serve::ForecastResult>> futures;
  for (size_t s : starts) {
    auto f = server.submit(w.request(s, kEpisodes));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (size_t k = 0; k < starts.size(); ++k) {
    const serve::ForecastResult r = futures[k].get();
    EXPECT_FALSE(r.cache_hit);
    EXPECT_EQ(r.resumed_frames, starts[k] == resumed_start ? w.spec.T : 0);
    expect_frames_bitwise(r.frames, ref[k]);
    ASSERT_TRUE(r.verified);
    ASSERT_EQ(r.verdict.mean_residual, ref_verdict[k].mean_residual);
    ASSERT_EQ(r.verdict.max_residual, ref_verdict[k].max_residual);
    ASSERT_EQ(r.verdict.pass, ref_verdict[k].pass);
  }
  // Step 0 stacks the three cold chains, step 1 all four: one forward per
  // episode step, not one per chain.
  EXPECT_EQ(util::FaultInjector::instance().site_stats("serve.forward").hits,
            static_cast<uint64_t>(kEpisodes));
  EXPECT_EQ(server.stats().cache_prefix_hits, 1u);
}
