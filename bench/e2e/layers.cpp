#include <span>

#include "common.hpp"
#include "core/decode.hpp"
#include "core/rollout.hpp"
#include "core/trainer.hpp"
#include "core/verification.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "obs/profile.hpp"
#include "serve/server.hpp"
#include "tensor/storage.hpp"
#include "util/rng.hpp"

namespace bench {

namespace co = coastal;
using co::data::CenterFields;

namespace {

constexpr int kWalkWindows = 200;
constexpr int kTrainSteps = 100;
constexpr int kOceanSteps = 2000;

/// Serial inference walk: every call runs under NoGradGuard, eval mode,
/// and one ArenaScope per batch step, exactly as the serving path does.
void inference_walk(World& w, const std::vector<size_t>& starts, Spans& spans,
                    Result& out) {
  auto& model = *w.model;
  model.set_training(false);
  co::tensor::NoGradGuard no_grad;
  const co::core::MassVerifier verifier(w.grid,
                                        co::serve::ServerConfig{}.threshold);
  std::vector<std::vector<CenterFields>> windows;
  for (size_t s : starts) windows.push_back(test_window(w, s, 1));

  auto& prof = co::obs::StageProfiler::instance();
  prof.set_enabled(true);
  prof.reset();
  // One walk step: B windows through pack -> forward -> decode (one
  // arena), then verify each.
  auto walk_step = [&](size_t i, int64_t B) {
    SpanScope step(spans, "walk.step", -1, B);
    std::vector<std::vector<CenterFields>> decoded(static_cast<size_t>(B));
    {
      co::tensor::ArenaScope arena;
      std::vector<std::span<const CenterFields>> batch;
      for (size_t b = 0; b < static_cast<size_t>(B); ++b) {
        batch.emplace_back(windows[i + b]);
      }
      co::data::BatchedInput in;
      {
        SpanScope s(spans, "pack", step.id(), B);
        in = co::data::make_batched_input(w.spec(), batch);
      }
      co::core::SurrogateOutput o;
      {
        SpanScope s(spans, "forward", step.id(), B);
        co::nn::BatchStatScope groups(B);
        o = model.forward(in.volume, in.surface);
      }
      SpanScope s(spans, "decode", step.id(), B);
      for (int64_t b = 0; b < B; ++b) {
        decoded[static_cast<size_t>(b)] =
            co::core::decode_prediction_entry(w.spec(), o, b, w.norm());
      }
    }
    {
      SpanScope s(spans, "verify", step.id(), B);
      for (size_t b = 0; b < static_cast<size_t>(B); ++b) {
        std::vector<CenterFields> seq{
            co::data::denormalized_copy(windows[i + b][0], w.norm())};
        seq.insert(seq.end(), decoded[b].begin(), decoded[b].end());
        verifier.check_sequence(seq, kSnapshotDt);
      }
    }
  };
  for (int64_t B : {1, 2, 4, 8}) {
    for (size_t i = 0; i + static_cast<size_t>(B) <= windows.size();
         i += static_cast<size_t>(B)) {
      walk_step(i, B);
      if (B != 1) continue;
      // The same episode through the library's own one-call path: the
      // stages above must add up to it.
      SpanScope s(spans, "episode", -1, B);
      co::tensor::ArenaScope arena;
      co::core::forecast_episode(model, w.spec(), w.norm(), windows[i],
                                 nullptr);
    }
  }
  // The numerical fallback in its own loop: between the steps above it
  // would evict the caches the episode comparison depends on.
  for (const auto& window : windows) {
    SpanScope s(spans, "fallback");
    const CenterFields current =
        co::data::denormalized_copy(window[0], w.norm());
    co::core::numerical_episode(w.grid, w.tides, w.params, current,
                                current.time, kSnapshotDt, kT);
  }

  double forward_us = prof.snapshot(co::obs::Stage::kForward).sum;
  for (int64_t B : {1, 2, 4, 8}) {
    const double n = static_cast<double>(kWalkWindows / B);
    forward_us += spans.mean_ms("forward", B) * n * 1e3;
  }
  const double gemm_us = prof.snapshot(co::obs::Stage::kGemm).sum;
  const double attn_us = prof.snapshot(co::obs::Stage::kAttention).sum;

  for (int64_t B : {1, 2, 4, 8}) {
    out.add("core.forward_ms.b" + std::to_string(B),
            spans.mean_ms("forward", B), "ms", kWalkWindows / B);
  }
  const double pack1 = spans.mean_ms("pack", 1);
  const double fwd1 = spans.mean_ms("forward", 1);
  const double dec1 = spans.mean_ms("decode", 1);
  const double episode = spans.mean_ms("episode");
  out.add("core.decode_ms", dec1, "ms", kWalkWindows);
  out.add("core.verify_ms", spans.mean_ms("verify", 1), "ms", kWalkWindows);
  out.add("core.episode_ms", episode, "ms", kWalkWindows);
  out.add("core.stage_sum_ratio",
          episode > 0 ? (pack1 + fwd1 + dec1) / episode : 0.0, "ratio");
  out.add("data.pack_ms.b1", pack1, "ms", kWalkWindows);
  out.add("data.pack_ms.b8", spans.mean_ms("pack", 8), "ms",
          kWalkWindows / 8);
  out.add("ocean.fallback_ms", spans.mean_ms("fallback"), "ms",
          kWalkWindows);
  out.add("tensor.gemm_share", forward_us > 0 ? gemm_us / forward_us : 0.0,
          "ratio");
  out.add("tensor.attention_share",
          forward_us > 0 ? attn_us / forward_us : 0.0, "ratio");
}

void ocean_walk(World& w, size_t start, Spans& spans, Result& out) {
  auto model = co::core::restart_from_fields(
      w.grid, w.tides, w.params, w.test_fields[start],
      w.test_t0 + static_cast<double>(start) * kSnapshotDt);
  {
    SpanScope s(spans, "ocean.steps", -1, kOceanSteps);
    for (int i = 0; i < kOceanSteps; ++i) model.step();
  }
  out.add("ocean.step_us", spans.mean_ms("ocean.steps") * 1e3 / kOceanSteps,
          "us", kOceanSteps);
}

/// 100 training steps through the public calls on a scratch model (the
/// served model is never touched), after one core::train epoch that gives
/// the per-sample wall time the steps must add up to.
void train_walk(World& w, Spans& spans, Result& out) {
  auto model = fresh_model(w);
  co::core::TrainStats st;
  {
    SpanScope s(spans, "train.core_epoch");
    st = co::core::train(*model, w.train_set, co::core::TrainConfig{});
  }
  const double per_sample_ms =
      st.wall_seconds * 1e3 / static_cast<double>(st.samples_seen);

  model->set_training(true);
  co::nn::Adam opt(model->parameters(), co::core::TrainConfig{}.lr);
  const auto store = w.train_set.store();
  const auto& idx = w.train_set.train_indices;
  for (int k = 0; k < kTrainSteps; ++k) {
    const co::data::Sample sample = store.read(idx[static_cast<size_t>(k) %
                                                   idx.size()]);
    SpanScope step(spans, "train.step");
    co::tensor::Tensor loss;
    {
      SpanScope s(spans, "train.forward", step.id());
      const auto o = model->forward_sample(sample, false);
      auto with_batch = [](const co::tensor::Tensor& t) {
        co::tensor::Shape shape{1};
        shape.insert(shape.end(), t.shape().begin(), t.shape().end());
        return t.reshape(shape);
      };
      loss = co::tensor::mse_loss(o.volume, with_batch(sample.target_volume))
                 .add(co::tensor::mse_loss(o.surface,
                                           with_batch(sample.target_surface)));
    }
    {
      SpanScope s(spans, "train.backward", step.id());
      loss.backward();
    }
    SpanScope s(spans, "train.optimizer", step.id());
    co::nn::clip_grad_norm(opt.params(), co::core::TrainConfig{}.clip_norm);
    opt.step();
    opt.zero_grad();
  }
  const double fwd = spans.mean_ms("train.forward");
  const double bwd = spans.mean_ms("train.backward");
  const double optim = spans.mean_ms("train.optimizer");
  out.add("train.forward_ms", fwd, "ms", kTrainSteps);
  out.add("train.backward_ms", bwd, "ms", kTrainSteps);
  out.add("train.optimizer_ms", optim, "ms", kTrainSteps);
  out.add("train.step_sum_ratio", (fwd + bwd + optim) / per_sample_ms,
          "ratio");
  out.add("train.samples_per_s", st.throughput, "1/s");
  out.add("train.final_loss", st.final_train_loss, "loss");
}

}  // namespace

void run_layer_walk(World& w, const RunOptions& opt, Spans& spans,
                    Result& out) {
  co::util::Rng rng(opt.seed * 0x94D049BB133111EBull + 5);
  std::vector<size_t> starts(kWalkWindows);
  for (auto& s : starts) s = rng.uniform_index(w.test_fields_norm.size() - kT);

  inference_walk(w, starts, spans, out);
  ocean_walk(w, starts.front(), spans, out);
  const bool serve = opt.workload.rfind("serve_", 0) == 0;
  // Layers a workload does not run itself are still measured, on the
  // walk's windows, so every traced run reports every layer metric.
  if (!serve) run_serve_probe(w, starts, spans, out);
  if (opt.workload != "hindcast_12d") {
    const auto r = hindcast(w, 0);
    out.add("workflow.ai_s", r.ai_seconds, "s");
    out.add("workflow.verify_s", r.verify_seconds, "s");
    out.add("workflow.roms_s", r.roms_seconds, "s");
    out.add("workflow.pass_rate", r.pass_rate(), "ratio");
  }
  train_walk(w, spans, out);
  out.add("samples.walk", kWalkWindows, "count");
}

}  // namespace bench
