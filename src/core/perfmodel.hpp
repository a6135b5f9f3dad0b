#pragma once

/// \file perfmodel.hpp
/// Calibrated analytic performance model for paper-scale projections.
///
/// This environment has one CPU core and no GPU, so the absolute seconds
/// of Table I / Fig. 8 / Fig. 10 cannot be measured here.  What *can* be
/// held fixed are the scaling laws — work per cell-step for the fluid
/// solver, work per token for the transformer, ring-allreduce traffic for
/// data parallelism — so the model below is calibrated once against the
/// paper's published anchor points and then used to project any mesh,
/// core count, threshold, or GPU count.  Every bench prints measured
/// miniature numbers alongside these projections and labels them clearly.
///
/// Anchor points (from the paper):
///  - MPI ROMS, 898x598x12 mesh, 12-day horizon, 512 cores: 9,908 s.
///  - Surrogate inference, same mesh, patch 5: 0.888 s / instance (12-h),
///    22.2 s for the dual-model 12-day forecast (1 coarse + 24 fine).
///  - Training throughput, 1 GPU: 1.36 inst/s (with checkpointing),
///    0.81 inst/s without; 32 GPUs reach ~25 inst/s (Fig. 10).

#include <cstdint>

#include "core/surrogate.hpp"

namespace coastal::core {

class PerfModel {
 public:
  // --- ROMS (MPI, CPU) ---------------------------------------------------
  /// Wall seconds to simulate `sim_seconds` of ocean time on an
  /// nx*ny*nz mesh with `cores` ranks: cost = K * cells * sim_seconds /
  /// (cores * eff(cores)), with parallel efficiency decaying as halo
  /// surface-to-volume grows.
  static double roms_seconds(int64_t nx, int64_t ny, int64_t nz,
                             double sim_seconds, int cores);

  // --- surrogate (GPU) ---------------------------------------------------
  /// The paper's full-mesh configuration (patch 5), for anchoring.
  static SurrogateConfig paper_config();

  /// Dual-model 12-day forecast cost: 1 coarse + 24 fine inferences.
  static double forecast_12day_seconds();

  // --- integrated workflow (Fig. 8) ---------------------------------------
  /// End-to-end 12-day forecast time when a fraction `fail_rate` of the 24
  /// fine episodes fails verification and is recomputed by MPI ROMS (each
  /// episode covers 12 h of ocean time on 512 cores).
  static double workflow_12day_seconds(double fail_rate);

  // --- training scaling (Fig. 10) -----------------------------------------
  /// Aggregate training throughput (instances/s) on `ngpus` A100s with or
  /// without activation checkpointing, using a ring-allreduce comm model.
  static double training_throughput(int ngpus, bool checkpoint);

  // --- Table II memory ----------------------------------------------------
  /// Host->device bytes of one full-scale sample (FP32 on device).
  static uint64_t sample_device_bytes_fullscale();
  /// Activation working set of one full-scale forward pass.
  static uint64_t activation_bytes_fullscale();
  /// Parameter + optimizer-state bytes at full scale.
  static uint64_t parameter_state_bytes_fullscale();
};

}  // namespace coastal::core
