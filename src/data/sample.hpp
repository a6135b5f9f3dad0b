#pragma once

/// \file sample.hpp
/// Training-sample construction: the regional-model contract.
///
/// Unlike global forecasting surrogates, the paper's model takes the
/// *initial condition* of the whole mesh at t = 0 plus the *boundary
/// conditions* (the lateral ring of the mesh) at t = 1..T, and predicts
/// the interior at t = 1..T.  A sample therefore packs:
///   volume  [3, H, W, D, T+1] : u, v, w — full field at time 0, boundary
///                               ring only (interior zero) at times 1..T;
///   surface [1, H, W, T+1]    : zeta, same scheme;
///   target_volume  [3, H, W, D, T] and target_surface [1, H, W, T]:
///                               the true fields at times 1..T.
/// H/W are the zero-padded mesh dims (paper pads 898x598 -> 900x600 so the
/// patching divides evenly); `valid` marks the un-padded region evaluation
/// should count.

#include <span>

#include "data/center_fields.hpp"
#include "tensor/tensor.hpp"

namespace coastal::data {

struct SampleSpec {
  int H = 0;      ///< padded rows (ny)
  int W = 0;      ///< padded cols (nx)
  int D = 0;      ///< sigma layers (padded if needed)
  int T = 0;      ///< forecast steps
  int src_ny = 0, src_nx = 0, src_nz = 0;

  int64_t volume_numel() const {
    return 3LL * H * W * D * (T + 1);
  }
  int64_t surface_numel() const { return 1LL * H * W * (T + 1); }
  int64_t target_volume_numel() const { return 3LL * H * W * D * T; }
  int64_t target_surface_numel() const { return 1LL * H * W * T; }
  int64_t total_numel() const {
    return volume_numel() + surface_numel() + target_volume_numel() +
           target_surface_numel();
  }
  bool operator==(const SampleSpec&) const = default;
};

/// Round dims of the source mesh up to multiples of `multiple_hw` (for H
/// and W) and `multiple_d` (for D).
SampleSpec make_spec(int src_ny, int src_nx, int src_nz, int T,
                     int multiple_hw, int multiple_d);

struct Sample {
  tensor::Tensor volume;          ///< [3, H, W, D, T+1]
  tensor::Tensor surface;         ///< [1, H, W, T+1]
  tensor::Tensor target_volume;   ///< [3, H, W, D, T]
  tensor::Tensor target_surface;  ///< [1, H, W, T]
  bool pinned = false;            ///< staged in pinned host memory
};

/// Build one sample from T+1 consecutive *normalized* snapshots.
Sample make_sample(const SampleSpec& spec,
                   std::span<const CenterFields> window);

/// Inference-only batched input: the stacked volume/surface tensors for a
/// batch of windows, without the target tensors a Sample would carry
/// (serving never reads them — zeroing and concatenating them per request
/// was pure waste).
struct BatchedInput {
  tensor::Tensor volume;   ///< [B, 3, H, W, D, T+1]
  tensor::Tensor surface;  ///< [B, 1, H, W, T+1]
};

/// Pack `windows` (each T+1 normalized snapshots) directly into one
/// stacked batch: request b lands at offset b*volume_numel() /
/// b*surface_numel(), written by the same packers make_sample uses, so
/// the bytes are bitwise identical to concatenating per-window samples.
/// `initial_conditions`, when given, holds one pointer per window; a
/// non-null one is packed in place of that window's frame 0 (the
/// autoregressive hand-off: a normalized predicted frame).
BatchedInput make_batched_input(
    const SampleSpec& spec,
    std::span<const std::span<const CenterFields>> windows,
    std::span<const CenterFields* const> initial_conditions = {});

}  // namespace coastal::data
