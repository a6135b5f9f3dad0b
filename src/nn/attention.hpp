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

/// Flash-style fused scaled-dot-product attention.  q/k/v are
/// [B, heads, N, d]; `mask` (optional) is the additive [groups, N, N]
/// window bias with groups dividing B (window index fastest-varying in B,
/// as produced by window partitioning).  Streams K/V blocks through
/// `tensor::kernels::attention_fused`, never materializing the
/// [B, heads, N, N] score tensor.
///
/// **Differentiable.**  When autograd is recording and q/k/v carry a
/// graph, the forward additionally saves the [B, heads, N] online-softmax
/// row statistics (max + exp-sum, 2 floats per row) and its output, and
/// the recorded node backpropagates through
/// `tensor::kernels::attention_fused_backward` — a recompute-based flash
/// backward that re-streams K/V blocks, so neither the score nor the
/// dScore tensor is ever materialized on the training path either.  The
/// mask is treated as a constant additive bias (the cached shifted-window
/// mask never trains); whenever autograd is recording, a mask that
/// carries a graph is rejected with an error — even if q/k/v record
/// nothing, so a mask gradient can never be dropped silently.  Route such
/// calls through the unfused reference path instead.
Tensor fused_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                       const Tensor& mask, float scale);

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
  Tensor forward(const Tensor& x, const Tensor& mask = Tensor()) const;

  int64_t dim() const { return dim_; }
  int64_t heads() const { return heads_; }

 private:
  int64_t dim_, heads_, head_dim_;
  float scale_;
  std::shared_ptr<Linear> qkv_, proj_;
};

}  // namespace coastal::nn
