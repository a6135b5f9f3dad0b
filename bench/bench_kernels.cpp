/// Micro-benchmarks (google-benchmark) for the hot kernels underlying the
/// system: tensor matmul/softmax/layernorm, 4-D window partitioning,
/// attention forward/backward, the shallow-water step, halo exchange, and
/// FP16 conversion.  These are the knobs the ablations in DESIGN.md call
/// out; tracking them catches performance regressions.

#include <benchmark/benchmark.h>

#include <condition_variable>
#include <limits>
#include <mutex>
#include <span>
#include <thread>

#include "bench_common.hpp"
#include "core/rollout.hpp"
#include "core/surrogate.hpp"
#include "core/window4d.hpp"
#include "nn/attention.hpp"
#include "nn/optimizer.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "ocean/bathymetry.hpp"
#include "ocean/solver.hpp"
#include "parallel/decomposition.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/server.hpp"
#include "tensor/half.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"
#include "util/fault.hpp"

using namespace coastal;
using tensor::Tensor;

namespace {

/// The seed repo's scalar GEMM, kept verbatim (including the NaN-dropping
/// `a == 0.0f` skip) as the speedup baseline for the blocked kernel.
void seed_gemm_acc(const float* A, const float* B, float* C, int64_t m,
                   int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = C + i * n;
    const float* arow = A + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float a = arow[kk];
      if (a == 0.0f) continue;
      const float* brow = B + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += a * brow[j];
    }
  }
}

}  // namespace

static void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul(b).raw());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

static void BM_MatmulSeedScalar(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    seed_gemm_acc(a.raw(), b.raw(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulSeedScalar)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

static void BM_TransposeLast(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(8);
  Tensor x = Tensor::randn({8, n, n}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) benchmark::DoNotOptimize(x.transpose_last().raw());
  state.SetBytesProcessed(state.iterations() * 8 * n * n * sizeof(float));
}
BENCHMARK(BM_TransposeLast)->Arg(64)->Arg(256);

static void BM_BroadcastAdd(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(9);
  Tensor x = Tensor::randn({16, n, n}, rng);
  Tensor bias = Tensor::randn({n}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) benchmark::DoNotOptimize(x.add(bias).raw());
  state.SetBytesProcessed(state.iterations() * 16 * n * n * sizeof(float));
}
BENCHMARK(BM_BroadcastAdd)->Arg(128);

// The decoder's non-GEMM hot spots at the surrogate's real shapes (patch
// 5×5×2 on the 20×20×6 mesh, embed 8): the full-resolution GELU after
// recover3d/bn3d, BatchNorm's move to channels-last, and its per-channel
// [rows, C] ∘ [C] affine arithmetic.
static void BM_Gelu(benchmark::State& state) {
  util::Rng rng(10);
  Tensor x = Tensor::randn({state.range(0)}, rng, 2.0f);
  tensor::NoGradGuard ng;
  for (auto _ : state) benchmark::DoNotOptimize(x.gelu().raw());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Gelu)->Arg(76800);

static void BM_PermuteToChannelsLast(benchmark::State& state) {
  util::Rng rng(11);
  Tensor x = Tensor::randn({4, 8, 20, 20, 6}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state)
    benchmark::DoNotOptimize(x.permute({0, 2, 3, 4, 1}).raw());
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_PermuteToChannelsLast);

static void BM_BroadcastRowVector(benchmark::State& state) {
  util::Rng rng(12);
  Tensor x = Tensor::randn({9600, 8}, rng);
  Tensor v = Tensor::randn({8}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) benchmark::DoNotOptimize(x.sub(v).raw());
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_BroadcastRowVector);

static void BM_SoftmaxLastDim(benchmark::State& state) {
  util::Rng rng(2);
  Tensor x = Tensor::randn({256, state.range(0)}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) benchmark::DoNotOptimize(x.softmax_lastdim().raw());
}
BENCHMARK(BM_SoftmaxLastDim)->Arg(64)->Arg(256);

static void BM_LayerNorm(benchmark::State& state) {
  util::Rng rng(3);
  Tensor x = Tensor::randn({512, state.range(0)}, rng);
  Tensor g = Tensor::ones({state.range(0)});
  Tensor b = Tensor::zeros({state.range(0)});
  tensor::NoGradGuard ng;
  for (auto _ : state) benchmark::DoNotOptimize(x.layer_norm(g, b).raw());
}
BENCHMARK(BM_LayerNorm)->Arg(32)->Arg(128);

static void BM_WindowPartition(benchmark::State& state) {
  // Shifted-window partition of a channels-last [1, 8, 8, 4, 4, 16] map:
  // the cyclic shift rides in the plan's row table.
  util::Rng rng(4);
  Tensor x = Tensor::randn({1, 8, 8, 4, 4, 16}, rng);
  const core::WindowPlan plan({8, 8, 4, 4}, {4, 4, 2, 2}, {2, 2, 1, 1});
  tensor::NoGradGuard ng;
  for (auto _ : state) benchmark::DoNotOptimize(plan.partition(x).raw());
}
BENCHMARK(BM_WindowPartition);

static void BM_AttentionForward(benchmark::State& state) {
  util::Rng rng(5);
  nn::MultiHeadSelfAttention attn(32, 4, rng);
  Tensor x = Tensor::randn({8, state.range(0), 32}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) benchmark::DoNotOptimize(attn.forward(x).raw());
  state.SetLabel("tokens=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_AttentionForward)->Arg(16)->Arg(64);

namespace {

/// Fused-vs-unfused attention forward at Swin-realistic window volumes
/// (4^4 = 256 tokens and neighbors).  Same module and input; only the
/// `attn_fused_min_n` gate differs, so the delta is purely the flash-style
/// epilogue vs the materialized [B, h, N, N] score round-trip.
void attention_forward_bench(benchmark::State& state, bool fused) {
  const int64_t n = state.range(0);
  util::Rng rng(5);
  nn::MultiHeadSelfAttention attn(32, 4, rng);
  Tensor x = Tensor::randn({8, n, 32}, rng);
  tensor::NoGradGuard ng;
  // RAII so a throwing iteration can't leak the pinned gate into the
  // benchmarks that run after this one.
  struct ConfigGuard {
    tensor::kernels::KernelConfig saved = tensor::kernels::config();
    ~ConfigGuard() { tensor::kernels::config() = saved; }
  } guard;
  tensor::kernels::config().attn_fused_min_n =
      fused ? 1 : std::numeric_limits<int64_t>::max();
  for (auto _ : state) benchmark::DoNotOptimize(attn.forward(x).raw());
  state.SetLabel("tokens=" + std::to_string(n));
}

}  // namespace

static void BM_AttentionFused(benchmark::State& state) {
  attention_forward_bench(state, /*fused=*/true);
}
BENCHMARK(BM_AttentionFused)->Arg(64)->Arg(256)->Arg(512);

static void BM_AttentionUnfused(benchmark::State& state) {
  attention_forward_bench(state, /*fused=*/false);
}
BENCHMARK(BM_AttentionUnfused)->Arg(64)->Arg(256)->Arg(512);

namespace {

/// Full training step of the attention module (forward + backward) with
/// the fused flash-style path against the unfused reference path.  The
/// fused variant records only [B, h, N] row statistics and re-streams K/V
/// blocks in the backward; the unfused variant materializes the
/// [B, h, N, N] score/attn tensors and their gradients.
void attention_backward_bench(benchmark::State& state, bool fused) {
  const int64_t n = state.range(0);
  util::Rng rng(6);
  nn::MultiHeadSelfAttention attn(32, 4, rng);
  Tensor x = Tensor::randn({8, n, 32}, rng);
  struct ConfigGuard {
    tensor::kernels::KernelConfig saved = tensor::kernels::config();
    ~ConfigGuard() { tensor::kernels::config() = saved; }
  } guard;
  tensor::kernels::config().attn_fused_min_n =
      fused ? 1 : std::numeric_limits<int64_t>::max();
  for (auto _ : state) {
    attn.zero_grad();
    attn.forward(x).sum().backward();
  }
  state.SetLabel("tokens=" + std::to_string(n));
}

}  // namespace

static void BM_AttentionBackward(benchmark::State& state) {
  attention_backward_bench(state, /*fused=*/true);
}
BENCHMARK(BM_AttentionBackward)->Arg(64)->Arg(256)->Arg(512);

static void BM_AttentionBackwardUnfused(benchmark::State& state) {
  attention_backward_bench(state, /*fused=*/false);
}
BENCHMARK(BM_AttentionBackwardUnfused)->Arg(64)->Arg(256)->Arg(512);

namespace {

/// The surrogate at the end-to-end benchmark's miniature scale: the
/// 20×20×6 mesh, T = 3, patch 5×5×2, embed 8, three stages.
core::SurrogateConfig mini_surrogate_config() {
  core::SurrogateConfig cfg;
  cfg.H = 20;
  cfg.W = 20;
  cfg.D = 6;
  cfg.T = 3;
  cfg.patch_h = 5;
  cfg.patch_w = 5;
  cfg.patch_d = 2;
  cfg.embed_dim = 8;
  cfg.stages = 3;
  cfg.heads = {2, 4, 8};
  return cfg;
}

}  // namespace

static void BM_SurrogateForward(benchmark::State& state) {
  // One eval forward of B stacked samples (batch statistics per sample,
  // as the server runs them) inside an episode arena, as core::rollout
  // runs it.
  const int64_t B = state.range(0);
  util::Rng rng(13);
  core::SurrogateModel model(mini_surrogate_config(), rng);
  model.set_training(false);
  util::Rng drng(14);
  Tensor volume = Tensor::randn({B, 3, 20, 20, 6, 4}, drng);
  Tensor surface = Tensor::randn({B, 1, 20, 20, 4}, drng);
  tensor::NoGradGuard ng;
  nn::BatchStatScope groups(B);
  for (auto _ : state) {
    tensor::ArenaScope arena;
    auto out = model.forward(volume, surface);
    benchmark::DoNotOptimize(out.volume.raw());
  }
  state.SetItemsProcessed(state.iterations() * B);
}
BENCHMARK(BM_SurrogateForward)->Arg(1)->Arg(8);

static void BM_TrainStep(benchmark::State& state) {
  // One optimizer step of the paper's surrogate at miniature scale:
  // forward + backward + Adam update.  Under the default config
  // (attn_fused_min_n = 0) its windows of 64 and 16 tokens take the
  // unfused reference attention, as served forwards do.
  util::Rng rng(10);
  core::SurrogateModel model(mini_surrogate_config(), rng);
  nn::Adam opt(model.parameters(), 1e-3f);
  util::Rng drng(11);
  Tensor volume = Tensor::randn({1, 3, 20, 20, 6, 4}, drng);
  Tensor surface = Tensor::randn({1, 1, 20, 20, 4}, drng);
  Tensor vt = Tensor::randn({1, 3, 20, 20, 6, 3}, drng);
  Tensor st = Tensor::randn({1, 1, 20, 20, 3}, drng);
  for (auto _ : state) {
    model.zero_grad();
    auto out = model.forward(volume, surface);
    tensor::mse_loss(out.volume, vt)
        .add(tensor::mse_loss(out.surface, st))
        .backward();
    opt.step();
  }
}
BENCHMARK(BM_TrainStep);

static void BM_AllocChurn(benchmark::State& state) {
  // Allocation-dominated elementwise chain at Swin-window-ish shapes:
  // measures the storage layer (pool + episode arena), not the math.  The
  // pre-pool engine was bimodal here — every op's std::vector landed on
  // the glibc brk/mmap crossover — while the pooled steady state performs
  // zero heap allocations per iteration (each iteration is one arena
  // "episode", the core::rollout pattern).
  const int64_t n = state.range(0);
  util::Rng rng(12);
  Tensor x = Tensor::randn({n, n}, rng);
  Tensor y = Tensor::randn({n, n}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    tensor::ArenaScope arena;
    Tensor t = x.add(y).mul(x).relu().add_scalar(1.0f).sqrt();
    benchmark::DoNotOptimize(t.raw());
  }
  state.SetItemsProcessed(state.iterations() * 5);  // tensors allocated
}
BENCHMARK(BM_AllocChurn)->Arg(64)->Arg(256);

namespace {

/// Shared fixture for the serving benches: the miniature surrogate plus a
/// synthetic trace of episode requests (normalized random fields — serving
/// throughput is about scheduling and kernels, not forecast skill).
struct ServeBenchWorld {
  data::SampleSpec spec = data::make_spec(20, 20, 6, 3, 4, 2);
  data::Normalizer norm;
  std::unique_ptr<core::SurrogateModel> model;
  std::vector<data::CenterFields> trace;  // kTrace request windows x (T+1)

  static constexpr int kTrace = 8;  ///< concurrent clients per iteration
  /// Distinct episodes among them — 4 clients per episode.  Public
  /// forecast traffic duplicates far more heavily than this (every user
  /// of a region asks for the same current window); 2 distinct windows
  /// keeps the serial baseline honest while the collapse win stays
  /// conservative.
  static constexpr int kDistinct = 2;

  ServeBenchWorld() {
    util::Rng rng(21);
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
    model = std::make_unique<core::SurrogateModel>(mcfg, rng);
    util::Rng drng(22);
    const size_t n3 = 6u * 20 * 20, n2 = 20u * 20;
    trace.resize(static_cast<size_t>(kDistinct) * 4);
    for (auto& f : trace) {
      f.nx = 20;
      f.ny = 20;
      f.nz = 6;
      f.u.resize(n3);
      f.v.resize(n3);
      f.w.resize(n3);
      f.zeta.resize(n2);
      for (auto& x : f.u) x = static_cast<float>(drng.normal());
      for (auto& x : f.v) x = static_cast<float>(drng.normal());
      for (auto& x : f.w) x = static_cast<float>(drng.normal());
      for (auto& x : f.zeta) x = static_cast<float>(drng.normal());
      norm.accumulate(f);
    }
    norm.freeze();
  }

  /// Client i's episode window.  Clients round-robin over kDistinct
  /// distinct episodes — the public-forecast traffic shape, where many
  /// concurrent clients ask for the *same* current forecast (here 4
  /// clients per episode).
  std::span<const data::CenterFields> window(int client) const {
    return {trace.data() + static_cast<size_t>(client % kDistinct) * 4, 4};
  }

  static ServeBenchWorld& instance() {
    static ServeBenchWorld w;
    return w;
  }
};

}  // namespace

static void BM_ServeSerial(benchmark::State& state) {
  // The one-request-at-a-time baseline: each of the 8 queued clients is
  // served by its own B = 1 episode (the pre-serving workflow pattern).
  auto& w = ServeBenchWorld::instance();
  w.model->set_training(false);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    for (int i = 0; i < ServeBenchWorld::kTrace; ++i) {
      tensor::ArenaScope arena;
      auto frames =
          core::forecast_episode(*w.model, w.spec, w.norm, w.window(i),
                                 nullptr);
      benchmark::DoNotOptimize(frames.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * ServeBenchWorld::kTrace);
}
BENCHMARK(BM_ServeSerial);

static void BM_ServeThroughput(benchmark::State& state) {
  // Requests/s through the micro-batching server for the same 8-client
  // burst BM_ServeSerial grinds through one episode at a time; the JSON
  // key encodes (workers, max_batch) as workers*100 + max_batch, so 101
  // disables coalescing entirely (1-deep batches), 108 = 1 worker with
  // 8-way coalescing, 408 = 4 workers.  Two effects separate the
  // configurations: identical-episode collapse (the 4x duplication in
  // the trace is removed outright — this carries the win on any host,
  // including 1-core) and batch-dimension amortization of kernel fan-out
  // (visible with multi-core kernels).  Results stay bitwise identical
  // to serial execution throughout (tests/test_serve.cpp).
  auto& w = ServeBenchWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = static_cast<int>(state.range(0) / 100);
  cfg.batch.max_batch = static_cast<int>(state.range(0) % 100);
  cfg.batch.max_wait_us = 20000;
  cfg.queue_capacity = 64;
  cfg.verify = false;
  // The forecast cache would serve every iteration after the first from
  // memory; keep it out so this stays a forward-path schedule benchmark
  // (the cache has its own figure, BM_ServeCached).
  cfg.cache.enabled = false;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, nullptr,
                               cfg);
  std::vector<std::future<serve::ForecastResult>> futures;
  futures.reserve(ServeBenchWorld::kTrace);
  for (auto _ : state) {
    futures.clear();
    for (int i = 0; i < ServeBenchWorld::kTrace; ++i) {
      serve::ForecastRequest req;
      const auto win = w.window(i);
      req.window.assign(win.begin(), win.end());
      auto f = server.submit(std::move(req));
      if (f) futures.push_back(std::move(*f));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() * ServeBenchWorld::kTrace);
}
BENCHMARK(BM_ServeThroughput)
    ->Arg(101)
    ->Arg(108)
    ->Arg(208)
    ->Arg(408)
    ->UseRealTime();

static void BM_ServeFaulty(benchmark::State& state) {
  // BM_ServeThroughput/108 with chaos turned on: 5% of forwards throw and
  // the retry layer absorbs them.  The number quantifies the cost of the
  // reliability machinery under fire; it is reported but never gated
  // (bench_diff --ignore) — the injected faults make the figure a
  // schedule property, not a kernel one.  The delta between this and a
  // no-fault 108 run is the price of a 5% transient-failure rate.
  auto& w = ServeBenchWorld::instance();
  util::FaultInjector::instance().install(
      "serve.forward:throw@"
      "0.05",
      2026);
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 20000;
  cfg.queue_capacity = 64;
  cfg.verify = false;
  cfg.cache.enabled = false;  // measure the retry path, not cache hits
  cfg.reliability.retry.max_attempts = 4;
  cfg.reliability.retry.backoff_us = 100;
  {
    serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, nullptr,
                                 cfg);
    std::vector<std::future<serve::ForecastResult>> futures;
    futures.reserve(ServeBenchWorld::kTrace);
    for (auto _ : state) {
      futures.clear();
      for (int i = 0; i < ServeBenchWorld::kTrace; ++i) {
        serve::ForecastRequest req;
        const auto win = w.window(i);
        req.window.assign(win.begin(), win.end());
        auto f = server.submit(std::move(req));
        if (f) futures.push_back(std::move(*f));
      }
      for (auto& f : futures) {
        // A run of max_attempts consecutive fires fails the request
        // (there is no fallback here); that is a valid serving outcome,
        // not a bench failure.
        try {
          benchmark::DoNotOptimize(f.get());
        } catch (const serve::ForecastError&) {
        }
      }
    }
  }
  util::FaultInjector::instance().clear();
  state.SetItemsProcessed(state.iterations() * ServeBenchWorld::kTrace);
}
BENCHMARK(BM_ServeFaulty)->UseRealTime();

static void BM_ServeCached(benchmark::State& state, int mode) {
  // Requests/s through the content-addressed forecast cache
  // (docs/caching.md), 8 clients per iteration like BM_ServeThroughput:
  //   cold   — every window is new: probe misses, full forward, insert.
  //            The delta vs BM_ServeThroughput/108 is the keying +
  //            admission overhead on the miss path.
  //   warm   — every window repeats: exact hits, zero forwards.  The
  //            cache's headline figure; expected orders of magnitude
  //            above cold (gated at >= 2x in the JSON refresh).
  //   prefix — 2-episode chains whose 1-episode prefix stays cached while
  //            the second episode's boundary frames change every
  //            iteration: each request resumes the chain from the cached
  //            prefix and computes one episode instead of two.
  // Cold/prefix mutate one boundary float per request to mint fresh keys;
  // hit/miss composition is what is being measured, so the mutation cost
  // (one float store) is noise.
  auto& w = ServeBenchWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 20000;
  cfg.queue_capacity = 64;
  cfg.verify = false;
  serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, nullptr,
                               cfg);
  const int episodes = mode == 2 ? 2 : 1;
  const size_t frames = static_cast<size_t>(episodes) * 3 + 1;
  auto make_request = [&](int i, float salt) {
    serve::ForecastRequest req;
    req.window.reserve(frames);
    const auto win = w.window(i);
    req.window.assign(win.begin(), win.end());
    for (size_t t = req.window.size(); t < frames; ++t)
      req.window.push_back(w.trace[t % w.trace.size()]);
    if (salt != 0.0f) req.window.back().u[0] = salt;
    return req;
  };
  if (mode != 0) {
    // Warm the cache: the exact windows (warm) / their 1-episode
    // prefixes (prefix) the timed loop will probe for.
    std::vector<std::future<serve::ForecastResult>> warmup;
    for (int i = 0; i < ServeBenchWorld::kTrace; ++i) {
      serve::ForecastRequest req;
      const auto win = w.window(i);
      req.window.assign(win.begin(), win.end());
      auto f = server.submit(std::move(req));
      if (f) warmup.push_back(std::move(*f));
    }
    for (auto& f : warmup) f.get();
  }
  float salt = 1.0f;
  std::vector<std::future<serve::ForecastResult>> futures;
  futures.reserve(ServeBenchWorld::kTrace);
  for (auto _ : state) {
    futures.clear();
    for (int i = 0; i < ServeBenchWorld::kTrace; ++i) {
      // warm: repeat the cached windows verbatim.  cold/prefix: a fresh
      // key per request (cold salts a 1-episode window outright; prefix
      // salts only the second episode's boundary, keeping the prefix).
      const bool fresh = mode != 1;
      auto f = server.submit(
          make_request(i, fresh ? (salt += 1.0f) : 0.0f));
      if (f) futures.push_back(std::move(*f));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() * ServeBenchWorld::kTrace);
}
BENCHMARK_CAPTURE(BM_ServeCached, cold, 0)->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeCached, warm, 1)->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeCached, prefix, 2)->UseRealTime();

static void BM_ServeObserved(benchmark::State& state, bool obs_on) {
  // BM_ServeThroughput/108 with the observability layer armed (stage
  // profiler + full-rate tracing + registry counters) vs disarmed — the
  // pairing quantifies the instrumentation overhead on the serving hot
  // path.  Budget: /on must stay within 2% of /off (docs/observability.md);
  // both variants are bench_diff --ignore'd because the pairing itself,
  // not the trajectory, is the assertion.
  auto& w = ServeBenchWorld::instance();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 20000;
  cfg.queue_capacity = 64;
  cfg.verify = false;
  cfg.cache.enabled = false;  // forward path, as in BM_ServeThroughput
  cfg.obs.profile_stages = obs_on;
  cfg.obs.trace.enabled = obs_on;
  cfg.obs.trace.sample_rate = 1.0;
  {
    serve::ForecastServer server({{w.model.get(), w.spec}}, w.norm, nullptr,
                                 cfg);
    std::vector<std::future<serve::ForecastResult>> futures;
    futures.reserve(ServeBenchWorld::kTrace);
    for (auto _ : state) {
      futures.clear();
      for (int i = 0; i < ServeBenchWorld::kTrace; ++i) {
        serve::ForecastRequest req;
        const auto win = w.window(i);
        req.window.assign(win.begin(), win.end());
        auto f = server.submit(std::move(req));
        if (f) futures.push_back(std::move(*f));
      }
      for (auto& f : futures) benchmark::DoNotOptimize(f.get());
    }
  }
  // Disarm the process-wide profiler/recorder so later benches measure
  // their own configuration, not this one's.
  coastal::obs::StageProfiler::instance().set_enabled(false);
  coastal::obs::TraceRecorder::instance().configure(coastal::obs::TraceConfig{});
  coastal::obs::TraceRecorder::instance().clear();
  state.SetItemsProcessed(state.iterations() * ServeBenchWorld::kTrace);
}
BENCHMARK_CAPTURE(BM_ServeObserved, off, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeObserved, on, true)->UseRealTime();

static void BM_SolverStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ocean::Grid grid(n, n, 4, 400.0, 400.0);
  ocean::generate_estuary(grid, ocean::EstuaryParams{}, 1);
  auto tides = ocean::TidalForcing::gulf_coast_default();
  ocean::PhysicsParams p;
  p.dt = 10.0;
  ocean::TidalModel model(grid, tides, p);
  for (auto _ : state) model.step();
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SolverStep)->Arg(20)->Arg(32)->Arg(64)->Arg(128);

static void BM_HaloExchange(benchmark::State& state) {
  // Two ranks trading one ghost ring via the in-process communicator, 50
  // times.  Its time is mostly how fast the host wakes a blocked thread,
  // so tools/bench_diff.py gates it by its ratio to BM_HaloPingPong.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    par::World world(2);
    world.run([&](par::Comm& comm) {
      auto tile = par::make_tile(comm.rank(), 1, 2, n, n, 1);
      std::vector<float> field(
          static_cast<size_t>(tile.nx_padded()) * tile.ny_padded(), 1.0f);
      for (int i = 0; i < 50; ++i) par::exchange_halo(comm, tile, field);
    });
  }
}
BENCHMARK(BM_HaloExchange)->Arg(64);

static void BM_HaloPingPong(benchmark::State& state) {
  // The host's wake-up reference for BM_HaloExchange: the same two-thread
  // spawn, then 50 bare condvar round trips.  In a 1×2 exchange step each
  // rank blocks at most once, a round trip blocks twice, so the exchange
  // must not take longer than this.
  for (auto _ : state) {
    std::mutex mutex;
    std::condition_variable cv;
    int turn = 0;  // handoffs so far; even = thread 0 to move
    auto player = [&](int me) {
      for (int i = 0; i < 50; ++i) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return turn % 2 == me; });
        ++turn;
        cv.notify_one();
      }
    };
    std::thread a(player, 0), b(player, 1);
    a.join();
    b.join();
  }
}
BENCHMARK(BM_HaloPingPong);

static void BM_HalfConversion(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<float> xs(65536);
  for (auto& x : xs) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    auto h = tensor::to_half(xs);
    benchmark::DoNotOptimize(tensor::to_float(h).data());
  }
  state.SetBytesProcessed(state.iterations() * 65536 * sizeof(float));
}
BENCHMARK(BM_HalfConversion);

namespace {

/// Console output as usual, plus every run recorded into a
/// BenchJsonWriter so the binary emits machine-readable results.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    // Benchmarks run one after another, each reported when it ends, so the
    // pool dispatches since the last report are this row's (its set-up
    // included, which can only mark a row as pooled, never as inline).
    const uint64_t dispatches = par::ThreadPool::global().dispatches();
    const bool ran_inline = dispatches == dispatches_seen_;
    dispatches_seen_ = dispatches;
    for (const Run& run : runs) {
#ifdef COASTAL_BENCHMARK_SKIPPED_API  // google-benchmark >= 1.8
      if (run.skipped) continue;
#else
      if (run.error_occurred) continue;
#endif
      // One record per (op, size): skip aggregate rows (mean/median/...)
      // and all but the first repetition, whose suffixed names would parse
      // to duplicate keys.
      if (run.run_type != Run::RT_Iteration || run.repetition_index > 0)
        continue;
      // Key = (op, size).  Numeric path segments are the size (Arg
      // benches); non-numeric ones — BENCHMARK_CAPTURE labels like
      // BM_ServeCached/warm — stay part of the op so capture variants
      // don't collapse onto one key.  The real_time/process_time
      // suffixes UseRealTime appends are modifiers, not identity.
      const std::string full = run.benchmark_name();
      std::string op;
      int64_t size = 0;
      bool have_size = false;
      size_t pos = 0;
      while (pos <= full.size()) {
        size_t slash = full.find('/', pos);
        if (slash == std::string::npos) slash = full.size();
        const std::string seg = full.substr(pos, slash - pos);
        const bool numeric =
            !seg.empty() &&
            seg.find_first_not_of("0123456789") == std::string::npos;
        if (numeric && !have_size) {
          size = std::strtoll(seg.c_str(), nullptr, 10);
          have_size = true;
        } else if (seg != "real_time" && seg != "process_time") {
          if (!op.empty()) op += '/';
          op += seg;
        }
        pos = slash + 1;
      }
      double items_per_s = 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) items_per_s = it->second;
      writer.add(op, size, run.GetAdjustedRealTime(), items_per_s,
                 ran_inline);
    }
  }

  bench::BenchJsonWriter writer;

 private:
  uint64_t dispatches_seen_ = par::ThreadPool::global().dispatches();
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string out = "BENCH_kernels.json";
  if (!reporter.writer.empty() && reporter.writer.write(out)) {
    std::printf("\nwrote %s\n", out.c_str());
  }
  return 0;
}
