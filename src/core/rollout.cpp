#include "core/rollout.hpp"

#include <algorithm>
#include <limits>

#include "core/decode.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace coastal::core {

void poison_fields(data::CenterFields& f) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::fill(f.u.begin(), f.u.end(), nan);
  std::fill(f.v.begin(), f.v.end(), nan);
  std::fill(f.w.begin(), f.w.end(), nan);
  std::fill(f.zeta.begin(), f.zeta.end(), nan);
}

std::vector<data::CenterFields> forecast_episode(
    SurrogateModel& model, const data::SampleSpec& spec,
    const data::Normalizer& norm,
    std::span<const data::CenterFields> window,
    const data::CenterFields* ic_normalized) {
  COASTAL_CHECK_MSG(window.size() == static_cast<size_t>(spec.T) + 1,
                    "forecast_episode needs T+1 = " << spec.T + 1
                                                    << " frames, got "
                                                    << window.size());
  // Capture the action before the forward: a `throw` aborts the episode
  // here (the cheap point), a `nan` poisons the decoded output below —
  // modeling a surrogate that silently produced garbage.
  const util::FaultAction fa = COASTAL_FAULT_POINT("rollout.step");
  data::BatchedInput in = [&] {
    obs::ScopedStage stage(obs::Stage::kPack);
    obs::ScopedSpan span("pack");
    const std::span<const data::CenterFields> windows[] = {window};
    const data::CenterFields* const ics[] = {ic_normalized};
    return make_batched_input(spec, windows, ics);
  }();
  SurrogateOutput out = [&] {
    obs::ScopedStage stage(obs::Stage::kForward);
    obs::ScopedSpan span("model.forward");
    return model.forward(in.volume, in.surface);
  }();
  auto frames = [&] {
    obs::ScopedStage stage(obs::Stage::kDecode);
    return decode_prediction(spec, out, norm);
  }();
  if (fa == util::FaultAction::kNan && !frames.empty()) {
    poison_fields(frames.front());
  }
  return frames;
}

std::vector<data::CenterFields> rollout(
    SurrogateModel& model, const data::SampleSpec& spec,
    const data::Normalizer& norm,
    std::span<const data::CenterFields> truth, int episodes) {
  const int T = spec.T;
  COASTAL_CHECK_MSG(
      truth.size() >= static_cast<size_t>(episodes * T + 1),
      "rollout needs " << episodes * T + 1 << " frames, got " << truth.size());
  model.set_training(false);
  tensor::NoGradGuard ng;
  std::vector<data::CenterFields> predictions;
  predictions.reserve(static_cast<size_t>(episodes * T));
  data::CenterFields ic_normalized;  // replaces the window IC after episode 0
  for (int e = 0; e < episodes; ++e) {
    // All episode activations (input tensors, the forward graph-free
    // intermediates, the decoded output tensors) bump-allocate from one
    // arena and release in bulk here — steady-state episodes perform zero
    // per-op heap allocations.  Everything that outlives the episode
    // (CenterFields frames) is plain vector data, not tensors.
    tensor::ArenaScope arena;
    std::span<const data::CenterFields> window = truth.subspan(
        static_cast<size_t>(e * T), static_cast<size_t>(T) + 1);
    auto frames = forecast_episode(model, spec, norm, window,
                                   e > 0 ? &ic_normalized : nullptr);
    ic_normalized = data::normalized_copy(frames.back(), norm);
    for (auto& f : frames) predictions.push_back(std::move(f));
  }
  model.set_training(true);
  return predictions;
}

std::vector<data::CenterFields> dual_rollout(
    SurrogateModel& coarse_model, SurrogateModel& fine_model,
    const data::SampleSpec& coarse_spec, const data::SampleSpec& fine_spec,
    const data::Normalizer& norm,
    std::span<const data::CenterFields> coarse_truth,
    std::span<const data::CenterFields> fine_truth, int coarse_episodes) {
  const int Tc = coarse_spec.T;
  const int Tf = fine_spec.T;
  const int coarse_steps = coarse_episodes * Tc;
  COASTAL_CHECK(fine_truth.size() >=
                static_cast<size_t>(coarse_steps * Tf + 1));

  // Stage 1: coarse horizon.
  auto coarse_frames =
      rollout(coarse_model, coarse_spec, norm, coarse_truth, coarse_episodes);

  fine_model.set_training(false);
  tensor::NoGradGuard ng;

  // Stage 2: each coarse frame (or the true IC for the first segment)
  // seeds one fine episode.
  std::vector<data::CenterFields> out;
  out.reserve(static_cast<size_t>(coarse_steps * Tf));
  for (int c = 0; c < coarse_steps; ++c) {
    tensor::ArenaScope arena;  // bulk-release this fine episode's tensors
    std::span<const data::CenterFields> window = fine_truth.subspan(
        static_cast<size_t>(c * Tf), static_cast<size_t>(Tf) + 1);
    data::CenterFields ic;
    if (c > 0) {
      ic = coarse_frames[static_cast<size_t>(c - 1)];
      norm.normalize_fields(ic);
    }
    for (auto& f : forecast_episode(fine_model, fine_spec, norm, window,
                                    c > 0 ? &ic : nullptr))
      out.push_back(std::move(f));
  }
  fine_model.set_training(true);
  return out;
}

}  // namespace coastal::core
