#include "core/perfmodel.hpp"

#include <algorithm>
#include <cmath>

namespace coastal::core {

namespace {

// Calibration constants (see header for the anchor points).

/// Core-seconds per (cell * simulated second), from
/// 9908 s * 512 cores / (898*598*12 cells * 12*86400 s) at eff(512).
constexpr double kRomsWorkPerCellSecond = 6.46e-7;

/// Parallel efficiency of the MPI halo pattern: eff = 1/(1 + a*sqrt(p)).
/// a chosen so eff(512) ~ 0.85 (the paper's own 512-core run sits on the
/// flattening part of published ROMS scaling curves).
constexpr double kRomsHaloFactor = 0.0078;

/// Paper anchors for the surrogate.
constexpr double kPaperInferenceSeconds = 0.888;
constexpr double kFineEpisodesPer12Day = 24.0;
constexpr double kCoarseEpisodesPer12Day = 1.0;

/// Training anchors (Fig. 9): single-GPU instances/s.
constexpr double kTrainThroughput1Ckpt = 1.36;
constexpr double kTrainThroughput1NoCkpt = 0.81;
/// Ring-allreduce: comm fraction per step grows as 2(n-1)/n; the constant
/// is set so 32 GPUs land near the paper's ~25 inst/s (eff ~ 0.57).
constexpr double kAllreduceFraction = 0.39;
/// Crossing the node boundary (8 GPUs/node -> InfiniBand) costs extra.
constexpr double kInterNodePenalty = 0.12;

}  // namespace

double PerfModel::roms_seconds(int64_t nx, int64_t ny, int64_t nz,
                               double sim_seconds, int cores) {
  const double cells = static_cast<double>(nx) * ny * nz;
  const double eff =
      1.0 / (1.0 + kRomsHaloFactor * std::sqrt(static_cast<double>(cores)));
  return kRomsWorkPerCellSecond * cells * sim_seconds /
         (static_cast<double>(cores) * eff);
}

SurrogateConfig PerfModel::paper_config() {
  SurrogateConfig cfg;
  cfg.H = 900;
  cfg.W = 600;
  cfg.D = 12;
  cfg.T = 24;
  cfg.patch_h = 5;
  cfg.patch_w = 5;
  cfg.patch_d = 4;
  cfg.embed_dim = 24;
  cfg.stages = 3;
  cfg.heads = {3, 6, 12};
  return cfg;
}

double PerfModel::forecast_12day_seconds() {
  return (kCoarseEpisodesPer12Day + kFineEpisodesPer12Day) *
         kPaperInferenceSeconds;
}

double PerfModel::workflow_12day_seconds(double fail_rate) {
  fail_rate = std::clamp(fail_rate, 0.0, 1.0);
  // Each failed fine episode recomputes 12 hours of ocean time on 512
  // cores of MPI ROMS.
  const double roms_per_episode =
      roms_seconds(898, 598, 12, 12.0 * 3600.0, 512);
  return forecast_12day_seconds() +
         fail_rate * kFineEpisodesPer12Day * roms_per_episode;
}

double PerfModel::training_throughput(int ngpus, bool checkpoint) {
  const double single =
      checkpoint ? kTrainThroughput1Ckpt : kTrainThroughput1NoCkpt;
  if (ngpus <= 1) return single;
  const double n = static_cast<double>(ngpus);
  double comm = kAllreduceFraction * 2.0 * (n - 1.0) / n;
  if (ngpus > 8) comm += kInterNodePenalty;  // multi-node InfiniBand hop
  const double eff = 1.0 / (1.0 + comm);
  return n * single * eff;
}

uint64_t PerfModel::sample_device_bytes_fullscale() {
  // 900x600x12 mesh, T = 24: inputs (T+1 frames) + targets, FP32 on device.
  const auto cfg = paper_config();
  const uint64_t vol_in = 3ULL * 900 * 600 * 12 * (cfg.T + 1);
  const uint64_t surf_in = 900ULL * 600 * (cfg.T + 1);
  const uint64_t vol_out = 3ULL * 900 * 600 * 12 * cfg.T;
  const uint64_t surf_out = 900ULL * 600 * cfg.T;
  return (vol_in + surf_in + vol_out + surf_out) * sizeof(float);
}

uint64_t PerfModel::activation_bytes_fullscale() {
  // Dominant term: token activations kept for backward across all blocks.
  // tokens_stage0 * C * (activations per block) * blocks, FP16 compute
  // with FP32 master copies ~ 6 bytes/elem effective; calibrated to the
  // paper's measured 42 GB.
  const auto cfg = paper_config();
  const double tokens = static_cast<double>(cfg.h1()) * cfg.w1() * cfg.d1() *
                        cfg.tn();
  const double per_block = 14.0;  // LN/QKV/attn/softmax/MLP intermediates
  // Trailing factor calibrated so the paper config lands on its measured
  // 42 GB (covers attention score matrices and allocator slack).
  const double bytes =
      tokens * static_cast<double>(cfg.embed_dim) * per_block * 6.0 * 9.65;
  return static_cast<uint64_t>(bytes);
}

uint64_t PerfModel::parameter_state_bytes_fullscale() {
  // 3.39 M parameters (Table IV, patch 5): weights + grads (FP32) + Adam
  // m/v + FP16 working copies, plus allocator overhead — the paper
  // reports 12 GB for the whole "model parameter updating" stage, which
  // includes framework workspace; we report the strict state bytes.
  const double params = 3.39e6;
  return static_cast<uint64_t>(params * (4 + 4 + 8 + 2));
}

}  // namespace coastal::core
