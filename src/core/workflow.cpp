#include "core/workflow.hpp"

#include "core/decode.hpp"
#include "core/rollout.hpp"
#include "data/dataset.hpp"
#include "util/timer.hpp"

namespace coastal::core {

EpisodeOutcome verify_or_fallback(std::vector<data::CenterFields>& frames,
                                  const data::CenterFields& current,
                                  const MassVerifier& verifier,
                                  const NumericalFallback* fallback,
                                  double start_time, double snapshot_dt,
                                  const VerificationResult* prefix_verdict,
                                  size_t prefix_frames) {
  COASTAL_CHECK(prefix_frames == 0 ||
                (prefix_verdict != nullptr && prefix_frames < frames.size()));
  EpisodeOutcome outcome;
  const int T = static_cast<int>(frames.size());

  // Verify the episode including the transition from the current state.
  util::Timer verify_timer;
  outcome.verdict =
      prefix_frames > 0
          ? verifier.extend_sequence(
                *prefix_verdict, frames[prefix_frames - 1],
                std::span<const data::CenterFields>(frames).subspan(
                    prefix_frames),
                snapshot_dt)
          : verifier.check_sequence(current, frames, snapshot_dt);
  outcome.verify_seconds = verify_timer.seconds();

  if (!outcome.verdict.pass && fallback != nullptr) {
    // Fall back: recompute the episode with the numerical model from the
    // current verified state.
    outcome.fallback = true;
    util::Timer roms_timer;
    frames = numerical_episode(fallback->grid, fallback->tides,
                               fallback->params, current, start_time,
                               snapshot_dt, T);
    outcome.roms_seconds = roms_timer.seconds();
  }
  return outcome;
}

std::vector<data::CenterFields> numerical_episode(
    const ocean::Grid& grid, const ocean::TidalForcing& tides,
    const ocean::PhysicsParams& params, const data::CenterFields& current,
    double start_time, double snapshot_dt, int T) {
  ocean::TidalModel model =
      restart_from_fields(grid, tides, params, current, start_time);
  std::vector<data::CenterFields> frames;
  frames.reserve(static_cast<size_t>(T));
  for (int step = 0; step < T; ++step) {
    model.run_seconds(snapshot_dt);
    auto snap = ocean::reconstruct_3d(grid, model.time(), model.zeta(),
                                      model.ubar(), model.vbar());
    frames.push_back(data::center_from_snapshot(grid, snap));
  }
  return frames;
}

ocean::TidalModel restart_from_fields(const ocean::Grid& grid,
                                      const ocean::TidalForcing& tides,
                                      const ocean::PhysicsParams& params,
                                      const data::CenterFields& state,
                                      double start_time) {
  COASTAL_CHECK(state.nx == grid.nx() && state.ny == grid.ny() &&
                state.nz == grid.nz());
  ocean::TidalModel model(grid, tides, params);
  auto& slab = model.slab();
  slab.set_time(start_time);

  auto depth_avg = [&](const std::vector<float>& layered, int iy, int ix) {
    double a = 0.0;
    for (int k = 0; k < state.nz; ++k)
      a += layered[state.cell3(k, iy, ix)] *
           grid.sigma_thickness()[static_cast<size_t>(k)];
    return a;
  };

  for (int iy = 0; iy < grid.ny(); ++iy) {
    auto zrow = slab.zeta_row(iy);
    auto urow = slab.u_row(iy);
    for (int ix = 0; ix < grid.nx(); ++ix) {
      if (grid.wet(ix, iy))
        zrow[static_cast<size_t>(ix)] = state.zeta[state.cell2(iy, ix)];
    }
    // u faces: interior faces from the two adjacent cells; open-boundary
    // and edge faces one-sided.
    for (int ix = 0; ix <= grid.nx(); ++ix) {
      double u;
      if (ix == 0) {
        u = grid.wet(0, iy) ? depth_avg(state.u, iy, 0) : 0.0;
      } else if (ix == grid.nx()) {
        u = 0.0;
      } else if (grid.u_face_interior_open(ix, iy)) {
        u = 0.5 * (depth_avg(state.u, iy, ix - 1) + depth_avg(state.u, iy, ix));
      } else {
        u = 0.0;
      }
      urow[static_cast<size_t>(ix)] = static_cast<float>(u);
    }
  }
  for (int jf = 0; jf <= grid.ny(); ++jf) {
    auto vrow = slab.v_row(jf);
    for (int ix = 0; ix < grid.nx(); ++ix) {
      double v = 0.0;
      if (jf > 0 && jf < grid.ny() && grid.v_face_interior_open(ix, jf)) {
        v = 0.5 * (depth_avg(state.v, jf - 1, ix) + depth_avg(state.v, jf, ix));
      }
      vrow[static_cast<size_t>(ix)] = static_cast<float>(v);
    }
  }
  return model;
}

WorkflowResult run_workflow(SurrogateModel& model,
                            const data::SampleSpec& spec,
                            const data::Normalizer& norm,
                            const ocean::Grid& grid,
                            const ocean::TidalForcing& tides,
                            const ocean::PhysicsParams& params,
                            std::span<const data::CenterFields> truth,
                            int episodes, double start_time,
                            const WorkflowConfig& config) {
  const int T = spec.T;
  COASTAL_CHECK(truth.size() >= static_cast<size_t>(episodes * T + 1));
  MassVerifier verifier(grid, config.threshold);
  const NumericalFallback fallback{grid, tides, params};
  model.set_training(false);
  tensor::NoGradGuard ng;

  WorkflowResult result;
  // Current state, denormalized (seeds verification pairs and fallbacks).
  data::CenterFields current = data::denormalized_copy(truth[0], norm);
  data::CenterFields current_normalized = truth[0];
  double t = start_time;

  for (int e = 0; e < episodes; ++e) {
    // One arena per episode: the surrogate forward, decode, and
    // verification tensors all bump-allocate and release in bulk at the
    // end of the iteration (declared first so every tensor in the body
    // dies before the scope does).  Escaping frames are CenterFields —
    // plain vectors — so nothing tensor-backed leaves the episode.
    tensor::ArenaScope arena;
    ++result.episodes;
    std::span<const data::CenterFields> window =
        truth.subspan(static_cast<size_t>(e * T), static_cast<size_t>(T) + 1);

    util::Timer ai_timer;
    auto frames =
        forecast_episode(model, spec, norm, window, &current_normalized);
    result.ai_seconds += ai_timer.seconds();

    const EpisodeOutcome outcome = verify_or_fallback(
        frames, current, verifier, &fallback, t, config.snapshot_dt);
    result.verify_seconds += outcome.verify_seconds;
    result.roms_seconds += outcome.roms_seconds;
    if (outcome.fallback) {
      ++result.fallbacks;
    } else {
      ++result.accepted;
    }

    current = frames.back();
    current_normalized = current;
    norm.normalize_fields(current_normalized);
    t += T * config.snapshot_dt;
    for (auto& f : frames) result.frames.push_back(std::move(f));
  }
  model.set_training(true);
  return result;
}

}  // namespace coastal::core
