#pragma once

/// \file layers.hpp
/// Core layers used by the surrogate: Linear, LayerNorm, BatchNorm, MLP.
/// Convention: every layer acts on the last axis of a channels-last
/// tensor ([..., C]).

#include <memory>

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace coastal::nn {

/// y = x W + b with W of shape [in, out] (stored pre-transposed so the
/// forward is a single matmul on channel-last inputs).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, util::Rng& rng,
         bool bias = true);

  Tensor forward(const Tensor& x) const;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  Tensor weight;  ///< [in, out]
  Tensor bias;    ///< [out] (undefined when bias=false)

 private:
  int64_t in_, out_;
  bool has_bias_;
};

/// y = x W + b for x [..., in], W [in, out], b [out] (undefined: no
/// bias): one GEMM over x's contiguous [rows, in] buffer, no flatten or
/// unflatten copies.  The GEMM, the bias add and the recorded backward's
/// transposes and GEMMs are exactly the calls of the composed
/// reshape → matmul → add → reshape chain, so results match it bitwise.
Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias);

/// LayerNorm over the last dimension with learnable affine.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  Tensor forward(const Tensor& x) const;

  Tensor gamma, beta;

 private:
  float eps_;
};

/// BatchNorm over the channel (last) axis of a channels-last tensor
/// [B, ..., C].  Tracks running statistics for eval mode, as in the
/// paper's decoder (transposed conv -> BatchNorm -> GELU).
///
/// `use_batch_stats_in_eval`: with per-GPU batches of 1-2 samples (all an
/// 80 GB A100 fits at full mesh scale), running averages are dominated by
/// per-sample variation (tidal phase) and are unrepresentative at
/// inference.  Setting this flag normalizes with the current batch's
/// statistics in eval mode too — deterministic per sample, and the
/// standard small-batch remedy.  Running stats are still tracked for
/// inspection.
/// Scoped marker (thread-local, nests): the calling thread is evaluating a
/// micro-batch of `groups` *independent* requests stacked along the batch
/// axis.  While active, an eval-mode BatchNorm with use_batch_stats_in_eval
/// computes its statistics per group of batch-dim/groups consecutive
/// entries instead of over the whole batch — each request is normalized by
/// exactly the statistics it would see served alone, so a micro-batched
/// forward is bitwise identical per request to B separate forwards (the
/// per-group reductions visit the same values in the same order as the
/// B == 1 reduction).  Without this, batching would leak one request's
/// tidal phase into another's normalization.  The serving scheduler wraps
/// every coalesced forward in one; single-request paths need nothing
/// (groups == 1 is the historic behavior).  Training is unaffected —
/// BatchNorm reads the scope only in eval mode.
class BatchStatScope {
 public:
  explicit BatchStatScope(int64_t groups);
  ~BatchStatScope();
  BatchStatScope(const BatchStatScope&) = delete;
  BatchStatScope& operator=(const BatchStatScope&) = delete;

  /// Groups active on this thread; 1 when no scope is open.
  static int64_t groups();

 private:
  int64_t prev_;
};

class BatchNorm : public Module {
 public:
  explicit BatchNorm(int64_t channels, float eps = 1e-5f,
                     float momentum = 0.1f,
                     bool use_batch_stats_in_eval = false);

  /// x's rows of C channels as `rows` views them, [r1..rk, C], the row
  /// axes in the order the statistics accumulate over them — the
  /// reduction order, which fixes the float sums bit for bit.
  /// The result lays the row axes out in `order` (a permutation of 0..k-1)
  /// followed by C, labelled `shape`.  An eval forward outside a recorded
  /// graph with contiguous channels runs as one kernel
  /// (kernels::batch_norm) that reads the rows where they lie and writes
  /// the output layout; training and recorded forwards gather the rows
  /// into reduction order and compose differentiable ops.  Both round
  /// every intermediate the same way, so they agree bitwise.
  Tensor forward(const Tensor& x, const tensor::View& rows,
                 const std::vector<size_t>& order, tensor::Shape shape);

  Tensor gamma, beta;
  Tensor running_mean, running_var;

 private:
  int64_t channels_;
  float eps_, momentum_;
  bool use_batch_stats_in_eval_;
};

/// Two-layer MLP with GELU, the Swin block feed-forward:
/// Linear(dim, hidden) -> GELU -> Linear(hidden, dim).
class Mlp : public Module {
 public:
  Mlp(int64_t dim, int64_t hidden, util::Rng& rng);

  Tensor forward(const Tensor& x) const;

 private:
  std::shared_ptr<Linear> fc1_, fc2_;
};

}  // namespace coastal::nn
