#pragma once

/// \file rollout.hpp
/// Autoregressive forecasting (Sec. III-A).
///
/// One surrogate call covers T snapshots.  Longer horizons chain episodes:
/// the last predicted frame becomes the next episode's initial condition,
/// while boundary conditions always come from the provided (future)
/// boundary data — the regional-model contract.  The paper's dual-model
/// scheme (a 12-hour coarse rollout whose frames seed 30-minute fine
/// episodes) enters only as a cost, PerfModel::forecast_12day_seconds.

#include <span>
#include <vector>

#include "core/surrogate.hpp"
#include "data/normalization.hpp"

namespace coastal::core {

/// NaN-poison every element of `f` (not a sample, so wet cells are hit
/// regardless of the grid's land mask) — the `rollout.step` nan action,
/// shared by forecast_episode and the serving layer's per-entry decode.
void poison_fields(data::CenterFields& f);

/// One surrogate episode — the building block rollout() and
/// run_workflow() share: pack `window` (T+1 normalized frames: IC +
/// per-step boundary conditions) as a batch of one, with `ic_normalized`
/// in place of the initial condition when non-null (autoregressive
/// chaining), run the surrogate, and decode the T predicted frames
/// (denormalized).  Grad/eval state is the caller's contract: wrap in
/// NoGradGuard + set_training(false) (and an ArenaScope if episode
/// tensors should bump-allocate) exactly as the callers here do.
/// Fault site `rollout.step` fires once per episode (throw aborts it, nan
/// poisons the first decoded frame).
std::vector<data::CenterFields> forecast_episode(
    SurrogateModel& model, const data::SampleSpec& spec,
    const data::Normalizer& norm,
    std::span<const data::CenterFields> window,
    const data::CenterFields* ic_normalized);

/// Chain `episodes` surrogate calls.  `truth_normalized` must hold
/// episodes*T + 1 normalized frames; frame 0 is the initial condition and
/// the lateral boundary ring of every later frame provides the boundary
/// conditions.  Returns episodes*T denormalized predicted frames.
std::vector<data::CenterFields> rollout(
    SurrogateModel& model, const data::SampleSpec& spec,
    const data::Normalizer& norm,
    std::span<const data::CenterFields> truth_normalized, int episodes);

}  // namespace coastal::core
