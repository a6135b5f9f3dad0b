#pragma once

/// \file workflow.hpp
/// The integrated forecasting workflow of Fig. 1: the surrogate produces
/// each episode, the mass-conservation verifier checks it, and episodes
/// that fail are recomputed by the numerical model (ROMS stand-in)
/// restarted from the current state.  The verified output then seeds the
/// next episode, so errors cannot compound silently.

#include <span>
#include <vector>

#include "core/surrogate.hpp"
#include "core/verification.hpp"
#include "ocean/solver.hpp"

namespace coastal::core {

struct WorkflowConfig {
  double threshold = 4.0e-4;    ///< mean water-mass residual bound, m/s
  double snapshot_dt = 1800.0;  ///< seconds between forecast snapshots
};

struct WorkflowResult {
  size_t episodes = 0;
  size_t accepted = 0;    ///< episodes that passed verification
  size_t fallbacks = 0;   ///< episodes recomputed by the numerical model
  double ai_seconds = 0.0;
  double verify_seconds = 0.0;
  double roms_seconds = 0.0;
  std::vector<data::CenterFields> frames;  ///< denormalized forecast

  double total_seconds() const {
    return ai_seconds + verify_seconds + roms_seconds;
  }
  double pass_rate() const {
    return episodes ? static_cast<double>(accepted) / episodes : 1.0;
  }
};

/// Outcome of verifying one forecast episode (and recomputing it with the
/// numerical model when the physics check failed).
struct EpisodeOutcome {
  VerificationResult verdict;   ///< physics check of the surrogate episode
  bool fallback = false;        ///< frames were replaced by the ROMS rerun
  double verify_seconds = 0.0;
  double roms_seconds = 0.0;
};

/// The numerical model (ROMS stand-in) a failed verdict falls back to.
struct NumericalFallback {
  const ocean::Grid& grid;
  const ocean::TidalForcing& tides;
  const ocean::PhysicsParams& params;
};

/// Compute one episode (T frames at snapshot_dt) purely with the
/// numerical model restarted from `current` at `start_time` — the
/// fallback path of verify_or_fallback, exposed so degraded serving can
/// skip the surrogate entirely.  Frames satisfy conservation by
/// construction.
std::vector<data::CenterFields> numerical_episode(
    const ocean::Grid& grid, const ocean::TidalForcing& tides,
    const ocean::PhysicsParams& params, const data::CenterFields& current,
    double start_time, double snapshot_dt, int T);

/// The verification half of the Fig. 1 loop, shared by run_workflow and
/// the serving layer: check `frames` (denormalized surrogate predictions,
/// one episode or a chain) as a continuation of the verified state
/// `current` (denormalized); when the mean water-mass residual breaches
/// the verifier's threshold and `fallback` is non-null, recompute all of
/// `frames` with the numerical model restarted from `current` at
/// `start_time` and replace them in place.  The returned verdict always
/// describes the *surrogate* frames (the fallback frames satisfy
/// conservation by construction).
///
/// `prefix_frames` > 0 says the first prefix_frames of `frames` were
/// already verified as `*prefix_verdict` (a cached chain prefix): the
/// verdict then extends it across the rest (MassVerifier::
/// extend_sequence), bitwise what one full pass from `current` yields.
EpisodeOutcome verify_or_fallback(std::vector<data::CenterFields>& frames,
                                  const data::CenterFields& current,
                                  const MassVerifier& verifier,
                                  const NumericalFallback* fallback,
                                  double start_time, double snapshot_dt,
                                  const VerificationResult* prefix_verdict =
                                      nullptr,
                                  size_t prefix_frames = 0);

/// Restart the numerical model from a (denormalized) cell-centered state:
/// zeta copied directly, face velocities interpolated from the
/// depth-averaged centered velocities.
ocean::TidalModel restart_from_fields(const ocean::Grid& grid,
                                      const ocean::TidalForcing& tides,
                                      const ocean::PhysicsParams& params,
                                      const data::CenterFields& state,
                                      double start_time);

/// Run `episodes` episodes of T snapshots each.  `truth_normalized`
/// supplies the initial condition and the per-episode boundary conditions
/// (episodes*T + 1 frames); `start_time` anchors the tidal phase for
/// fallback runs.
WorkflowResult run_workflow(SurrogateModel& model,
                            const data::SampleSpec& spec,
                            const data::Normalizer& norm,
                            const ocean::Grid& grid,
                            const ocean::TidalForcing& tides,
                            const ocean::PhysicsParams& params,
                            std::span<const data::CenterFields> truth_normalized,
                            int episodes, double start_time,
                            const WorkflowConfig& config);

}  // namespace coastal::core
