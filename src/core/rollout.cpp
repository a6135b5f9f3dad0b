#include "core/rollout.hpp"

#include <algorithm>
#include <limits>

#include "core/decode.hpp"
#include "obs/profile.hpp"
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
    const std::span<const data::CenterFields> windows[] = {window};
    const data::CenterFields* const ics[] = {ic_normalized};
    return make_batched_input(spec, windows, ics);
  }();
  SurrogateOutput out = [&] {
    obs::ScopedStage stage(obs::Stage::kForward);
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

}  // namespace coastal::core
