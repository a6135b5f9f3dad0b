#pragma once

/// \file attention.hpp
/// Multi-head self-attention over token sequences (Eq. 1-2 of the paper).
/// The Swin-specific windowing lives in core/window4d.*; this module sees
/// already-windowed tokens of shape [B, N, C] where B = batch * n_windows
/// and N = window volume.

#include <memory>

#include "nn/layers.hpp"

namespace coastal::nn {

using tensor::Tensor;

/// Fast path for unpacking a fused QKV projection: slices head group
/// `which` (0 = Q, 1 = K, 2 = V) out of [B, N, 3C] directly into
/// [B, heads, N, C/heads] — or, `transposed`, into [B, heads, C/heads, N]
/// (Kᵀ for the score GEMM) — in one strided move, skipping the
/// [3, B, h, N, d] permute and the reshape copy the naive path
/// materializes.  Differentiable.
Tensor split_qkv_head(const Tensor& qkv, int64_t heads, int which,
                      bool transposed = false);

/// Inverse of head splitting for the attention output:
/// [B, heads, N, d] -> [B, N, heads*d], fusing permute + reshape into one
/// gather (and its backward into one gather too).  Differentiable.
Tensor merge_heads(const Tensor& x);

class MultiHeadSelfAttention : public Module {
 public:
  /// `dim` must be divisible by `heads`.
  MultiHeadSelfAttention(int64_t dim, int64_t heads, util::Rng& rng);

  /// x: [B, N, C].  `mask` (optional): additive attention bias of shape
  /// [groups, N, N] with 0 for allowed and a large negative value for
  /// disallowed pairs — the shifted-window cross-boundary mask.  When
  /// defined, B must be divisible by `groups` and window index must be the
  /// fastest-varying component of B (i.e. B = batch * groups with groups
  /// contiguous), which is how window partitioning lays tokens out.
  ///
  /// Scores are materialized: Q·Kᵀ → scale → mask add → softmax → ·V, one
  /// route for inference, training and checkpoint recomputes alike.  A
  /// Swin window's [N, N] score block is small (16 KB per head at N = 64),
  /// so streaming it flash-style saves no memory worth having.  That core
  /// is timed as one `obs::Stage::kAttention` sample per call while the
  /// stage profiler is on (its GEMMs also count under `kGemm`).
  Tensor forward(const Tensor& x, const Tensor& mask = Tensor()) const;

  int64_t dim() const { return dim_; }
  int64_t heads() const { return heads_; }

 private:
  int64_t dim_, heads_, head_dim_;
  float scale_;
  std::shared_ptr<Linear> qkv_, proj_;
};

}  // namespace coastal::nn
