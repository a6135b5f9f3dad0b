/// Serving-subsystem tests: micro-batched results bitwise-equal to serial
/// execution, grouped BatchNorm statistics, backpressure and shutdown
/// semantics, the numerical fallback through the server, and the
/// steady-state zero-allocation pin.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <span>
#include <thread>

#include "core/rollout.hpp"
#include "core/workflow.hpp"
#include "data/dataset.hpp"
#include "data/normalization.hpp"
#include "nn/layers.hpp"
#include "ocean/archive.hpp"
#include "ocean/bathymetry.hpp"
#include "serve/server.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"
#include "test_helpers.hpp"

namespace core = coastal::core;
namespace data = coastal::data;
namespace nn = coastal::nn;
namespace ocean = coastal::ocean;
namespace serve = coastal::serve;
namespace tensor = coastal::tensor;
using coastal::util::Rng;

namespace {

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

/// Shared world: simulated archive + normalizer + (untrained) surrogate.
/// Serving correctness is about data movement and scheduling, not skill,
/// so no training is needed; the fallback tests force failure with an
/// impossible threshold exactly as test_workflow does.
struct ServeWorld {
  ocean::Grid grid{20, 20, 6, 400.0, 400.0};
  ocean::TidalForcing tides = ocean::TidalForcing::gulf_coast_default();
  ocean::PhysicsParams params;
  std::vector<data::CenterFields> fields;       // denormalized
  std::vector<data::CenterFields> fields_norm;  // normalized
  data::Normalizer norm;
  data::SampleSpec spec;
  std::unique_ptr<core::SurrogateModel> model;
  double t0 = 0.0;

  ServeWorld() {
    params.dt = 10.0;
    ocean::generate_estuary(grid, ocean::EstuaryParams{}, 42);
    ocean::ArchiveConfig acfg;
    acfg.spinup_seconds = 3600.0;
    acfg.duration_seconds = 10 * 3600.0;
    acfg.interval_seconds = 1800.0;
    auto snaps = ocean::simulate_archive(grid, tides, params, acfg);
    t0 = snaps.front().time;
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

  static ServeWorld& instance() {
    static ServeWorld w;
    return w;
  }

  /// Request whose episode starts at archive frame `start`.
  serve::ForecastRequest request(size_t start, int model_id = 0) const {
    serve::ForecastRequest r;
    r.model_id = model_id;
    r.window.assign(fields_norm.begin() + static_cast<ptrdiff_t>(start),
                    fields_norm.begin() + static_cast<ptrdiff_t>(start) + 4);
    return r;
  }

  /// Serial one-request-at-a-time reference for the same episode.
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

}  // namespace

TEST(BatchStatScope, GroupedEvalMatchesPerSampleBitwise) {
  // An eval-mode BatchNorm (batch stats) over two stacked samples with
  // BatchStatScope(2) must reproduce each sample's standalone output
  // bitwise — the property that makes micro-batching invisible.
  Rng rng(3);
  nn::BatchNorm bn(5, 1e-5f, 0.1f, /*use_batch_stats_in_eval=*/true);
  bn.set_training(false);
  tensor::NoGradGuard ng;
  tensor::Tensor a = tensor::Tensor::randn({1, 5, 7}, rng);
  tensor::Tensor b = tensor::Tensor::randn({1, 5, 7}, rng);
  tensor::Tensor ya = bn.forward(a);
  tensor::Tensor yb = bn.forward(b);
  tensor::Tensor stacked = tensor::concat({a, b}, 0);

  // Whole-batch stats mix the two samples: outputs differ.
  tensor::Tensor mixed = bn.forward(stacked);
  double max_mix = 0.0;
  for (int64_t i = 0; i < ya.numel(); ++i) {
    max_mix = std::max(max_mix,
                       std::abs(static_cast<double>(mixed.raw()[i]) -
                                ya.raw()[i]));
  }
  EXPECT_GT(max_mix, 1e-4) << "stacking should change whole-batch stats";

  nn::BatchStatScope scope(2);
  tensor::Tensor grouped = bn.forward(stacked);
  for (int64_t i = 0; i < ya.numel(); ++i) {
    ASSERT_EQ(grouped.raw()[i], ya.raw()[i]) << "entry 0 idx " << i;
    ASSERT_EQ(grouped.raw()[ya.numel() + i], yb.raw()[i])
        << "entry 1 idx " << i;
  }
}

TEST(ForecastServer, BatchedMatchesSerialBitwise) {
  auto& w = ServeWorld::instance();
  constexpr size_t kRequests = 8;

  std::vector<std::vector<data::CenterFields>> serial(kRequests);
  for (size_t i = 0; i < kRequests; ++i) serial[i] = w.serial_episode(i);

  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 200000;  // generous window: batches form
  cfg.threshold = 10.0;            // verification passes everything
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  std::vector<std::future<serve::ForecastResult>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    auto f = server.submit(w.request(i));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  int max_batch_seen = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    serve::ForecastResult r = futures[i].get();
    ASSERT_EQ(r.frames.size(), 3u);
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(r.verdict.pass);
    max_batch_seen = std::max(max_batch_seen, r.batch_size);
    expect_frames_bitwise(r.frames, serial[i]);
  }
  EXPECT_GT(max_batch_seen, 1) << "no micro-batch formed despite the window";

  auto stats = server.stats();
  EXPECT_EQ(stats.served, kRequests);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.p50_ms, 0.0);
  EXPECT_GE(stats.p99_ms, stats.p50_ms);
}

TEST(ForecastServer, IdenticalEpisodesCoalesceIntoOneEntry) {
  auto& w = ServeWorld::instance();
  constexpr size_t kClients = 8, kDistinct = 2;

  std::vector<std::vector<data::CenterFields>> serial(kDistinct);
  for (size_t i = 0; i < kDistinct; ++i) serial[i] = w.serial_episode(i);

  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = static_cast<int>(kClients);
  cfg.batch.max_wait_us = 200000;
  cfg.threshold = 10.0;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  std::vector<std::future<serve::ForecastResult>> futures;
  for (size_t i = 0; i < kClients; ++i) {
    auto f = server.submit(w.request(i % kDistinct));  // 4 clients/episode
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  int max_sharers = 0;
  for (size_t i = 0; i < kClients; ++i) {
    serve::ForecastResult r = futures[i].get();
    // Fan-out results are the exact frames a standalone run produces.
    expect_frames_bitwise(r.frames, serial[i % kDistinct]);
    EXPECT_LE(r.batch_size, static_cast<int>(kDistinct))
        << "distinct episodes per forward must not exceed the trace's";
    max_sharers = std::max(max_sharers, r.sharers);
  }
  EXPECT_GT(max_sharers, 1) << "duplicates should share one batch entry";
  EXPECT_GT(server.stats().coalesced, 0u);
  EXPECT_EQ(server.stats().served, kClients);
}

TEST(ForecastServer, RejectPolicyBoundsTheQueue) {
  auto& w = ServeWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.overflow = serve::ServerConfig::Overflow::kReject;
  cfg.batch.max_batch = 1;
  cfg.batch.max_wait_us = 0;
  cfg.verify = false;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, nullptr,
                               cfg);
  // Flood far beyond capacity: some must be rejected, every accepted one
  // must complete.
  std::vector<std::future<serve::ForecastResult>> accepted;
  size_t rejected = 0;
  for (int i = 0; i < 24; ++i) {
    auto f = server.submit(w.request(static_cast<size_t>(i % 4)));
    if (f.has_value()) {
      accepted.push_back(std::move(*f));
    } else {
      ++rejected;
    }
  }
  for (auto& f : accepted) {
    auto r = f.get();
    EXPECT_EQ(r.frames.size(), 3u);
    EXPECT_FALSE(r.verified);
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.served, accepted.size());
  // A 1-deep service pipeline against a 24-burst: the bound must bite.
  EXPECT_GT(rejected, 0u);
}

TEST(ForecastServer, BlockPolicyServesEverything) {
  auto& w = ServeWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 2;  // tiny: submitters must block, not fail
  cfg.overflow = serve::ServerConfig::Overflow::kBlock;
  cfg.batch.max_batch = 2;
  cfg.batch.max_wait_us = 1000;
  cfg.verify = false;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, nullptr,
                               cfg);
  std::vector<std::future<serve::ForecastResult>> futures;
  for (int i = 0; i < 12; ++i) {
    auto f = server.submit(w.request(static_cast<size_t>(i % 4)));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().frames.size(), 3u);
  EXPECT_EQ(server.stats().served, 12u);
  EXPECT_EQ(server.stats().rejected, 0u);
}

TEST(ForecastServer, ShutdownDrainsAndRejectsLateSubmits) {
  auto& w = ServeWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 0;
  cfg.verify = false;
  auto server = std::make_unique<serve::ForecastServer>(
      std::vector<serve::ModelSlot>{{w.model.get(), w.spec}}, w.norm,
      nullptr, cfg);
  std::vector<std::future<serve::ForecastResult>> futures;
  for (int i = 0; i < 6; ++i) {
    auto f = server->submit(w.request(static_cast<size_t>(i % 4)));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  server->shutdown();  // must drain all six
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().frames.size(), 3u);
  }
  EXPECT_FALSE(server->submit(w.request(0)).has_value());
  server.reset();  // double-shutdown via destructor: no hang, no throw
}

TEST(ForecastServer, StrictThresholdRoutesThroughRomsFallback) {
  auto& w = ServeWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 2;
  cfg.batch.max_wait_us = 50000;
  cfg.threshold = 1e-9;  // impossible: every episode falls back
  cfg.snapshot_dt = 1800.0;
  cfg.fallback = serve::FallbackContext{w.tides, w.params};
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, &w.grid,
                               cfg);
  auto f = server.submit(w.request(0));
  ASSERT_TRUE(f.has_value());
  serve::ForecastResult r = f->get();
  EXPECT_TRUE(r.verified);
  EXPECT_FALSE(r.verdict.pass);
  EXPECT_TRUE(r.fallback);
  ASSERT_EQ(r.frames.size(), 3u);
  // The fallback frames are the numerical model's — they satisfy
  // conservation at the usual bound even though the verdict failed.
  core::MassVerifier verifier(w.grid, 5e-4);
  std::vector<data::CenterFields> seq;
  seq.push_back(w.fields[0]);
  for (const auto& fr : r.frames) seq.push_back(fr);
  EXPECT_LT(verifier.check_sequence(seq, 1800.0).mean_residual, 5e-4);
  EXPECT_GT(server.stats().fallbacks, 0u);
}

TEST(BatchedInput, DirectPackMatchesConcatOfSamplesBitwise) {
  // The serving fix pinned here: writing the stacked batch tensors
  // directly (make_batched_input) must produce exactly the bytes the old
  // per-request make_sample + concat path produced — same packers, same
  // offsets, no target tensors.
  auto& w = ServeWorld::instance();
  constexpr size_t kB = 3;
  std::vector<std::span<const data::CenterFields>> windows;
  for (size_t b = 0; b < kB; ++b) {
    windows.emplace_back(w.fields_norm.data() + b, 4);
  }
  const data::BatchedInput batched = data::make_batched_input(
      w.spec, windows);

  std::vector<tensor::Tensor> vols, surfs;
  for (size_t b = 0; b < kB; ++b) {
    data::Sample s = data::make_sample(w.spec, windows[b]);
    tensor::Shape vs = s.volume.shape(), ss = s.surface.shape();
    tensor::Shape bvs{1}, bss{1};
    bvs.insert(bvs.end(), vs.begin(), vs.end());
    bss.insert(bss.end(), ss.begin(), ss.end());
    vols.push_back(s.volume.reshape(bvs));
    surfs.push_back(s.surface.reshape(bss));
  }
  const tensor::Tensor vol = tensor::concat(vols, 0);
  const tensor::Tensor surf = tensor::concat(surfs, 0);

  ASSERT_EQ(batched.volume.shape(), vol.shape());
  ASSERT_EQ(batched.surface.shape(), surf.shape());
  for (int64_t i = 0; i < vol.numel(); ++i) {
    ASSERT_EQ(batched.volume.data()[static_cast<size_t>(i)],
              vol.data()[static_cast<size_t>(i)])
        << "volume idx " << i;
  }
  for (int64_t i = 0; i < surf.numel(); ++i) {
    ASSERT_EQ(batched.surface.data()[static_cast<size_t>(i)],
              surf.data()[static_cast<size_t>(i)])
        << "surface idx " << i;
  }
}

TEST(ForecastServer, RandomizedCacheSchedulerFuzzBitwiseSerial) {
  // Randomized scheduler + cache interleaving: seeded request streams mix
  // duplicates, prefix-extensions, and two model slots with different
  // episode lengths.  Whatever batches form and whatever the cache hits,
  // every response must be bitwise equal to a serial no-cache replay
  // (computed up front via core::rollout).
  auto& w = ServeWorld::instance();
  data::SampleSpec spec2 =
      data::make_spec(20, 20, 6, /*T=*/2, /*multiple_hw=*/4, /*multiple_d=*/2);
  Rng mrng(11);
  core::SurrogateModel model2(model_config(spec2), mrng);

  struct Kind {
    int slot;
    size_t start;
    int episodes;
  };
  // Slot 0 chains extend slot-0 singles at the same start (prefix reuse);
  // slot 1 exercises a different T so mixed specs never share a batch.
  const std::vector<Kind> kinds = {
      {0, 0, 1}, {0, 1, 1}, {0, 2, 1}, {0, 0, 2}, {0, 1, 2},
      {1, 0, 1}, {1, 3, 1}, {1, 0, 2}, {1, 2, 3},
  };
  std::vector<std::vector<data::CenterFields>> refs(kinds.size());
  for (size_t k = 0; k < kinds.size(); ++k) {
    const Kind& kd = kinds[k];
    const data::SampleSpec& spec = kd.slot == 0 ? w.spec : spec2;
    core::SurrogateModel& model = kd.slot == 0 ? *w.model : model2;
    std::span<const data::CenterFields> window(
        w.fields_norm.data() + kd.start,
        static_cast<size_t>(kd.episodes * spec.T) + 1);
    refs[k] = core::rollout(model, spec, w.norm, window, kd.episodes);
  }

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << "failing fuzz seed: " << seed);
    Rng rng(seed);
    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.batch.max_batch = 4;
    cfg.batch.max_wait_us = static_cast<int64_t>(rng.uniform_index(3000));
    cfg.threshold = 10.0;
    serve::ForecastServer server({{w.model.get(), w.spec}, {&model2, spec2}},
                                 w.norm, &w.grid, cfg);
    std::vector<std::pair<size_t, std::future<serve::ForecastResult>>>
        inflight;
    for (int i = 0; i < 48; ++i) {
      const size_t k = rng.uniform_index(kinds.size());
      const Kind& kd = kinds[k];
      serve::ForecastRequest r;
      r.model_id = kd.slot;
      const data::SampleSpec& spec = kd.slot == 0 ? w.spec : spec2;
      const size_t frames = static_cast<size_t>(kd.episodes * spec.T) + 1;
      r.window.assign(
          w.fields_norm.begin() + static_cast<ptrdiff_t>(kd.start),
          w.fields_norm.begin() + static_cast<ptrdiff_t>(kd.start + frames));
      auto f = server.submit(std::move(r));
      ASSERT_TRUE(f.has_value());
      inflight.emplace_back(k, std::move(*f));
      // Occasionally let the queue drain so later duplicates hit the
      // cache instead of coalescing in flight.
      if (rng.uniform() < 0.25) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    for (auto& [k, f] : inflight) {
      serve::ForecastResult r = f.get();
      EXPECT_TRUE(r.verified);
      EXPECT_FALSE(r.fallback);
      expect_frames_bitwise(r.frames, refs[k]);
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.served, 48u);
    EXPECT_EQ(stats.failed, 0u);
  }
}

TEST(ForecastServer, SteadyStateServingAllocatesNothing) {
  if (!tensor::pool_enabled()) {
    GTEST_SKIP() << "pool disabled (COASTAL_DISABLE_POOL): every tensor is "
                    "a real allocation by design";
  }
  auto& w = ServeWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 100000;
  cfg.threshold = 10.0;
  // This pin measures the *forward* path; with the cache on, repeated
  // rounds would be served from cache instead (that path has its own
  // zero-alloc pin in test_cache.cpp).
  cfg.cache.enabled = false;
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
  // Warm the pool, the arenas, and the per-thread workspaces.
  round();
  round();
  const uint64_t before = tensor::alloc_stats().total_allocs;
  round();
  round();
  round();
  const uint64_t after = tensor::alloc_stats().total_allocs;
  EXPECT_EQ(after, before)
      << "steady-state served episodes must not touch the heap";
}
