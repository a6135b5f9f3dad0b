#pragma once

/// \file swin_block.hpp
/// The 4-D Swin Transformer block pair of Eq. 3:
///   z_hat = W-MSA(LN(z)) + z;      z = MLP(LN(z_hat)) + z_hat
///   z_hat = SW-MSA(LN(z)) + z;     z = MLP(LN(z_hat)) + z_hat
/// operating on channels-last feature maps [B, H, W, D, T, C].

#include <memory>

#include "core/window4d.hpp"
#include "nn/attention.hpp"
#include "nn/checkpoint.hpp"

namespace coastal::core {

/// One (shifted or not) windowed-attention block over a fixed grid.  The
/// window plan (token gather and shifted-window mask) is built in the
/// constructor, so a forward writes no block state: concurrent eval
/// forwards of one model are safe.
class SwinBlock4d : public nn::Module {
 public:
  SwinBlock4d(int64_t dim, int64_t heads, const Grid4d& grid,
              Window4d window, bool shifted, util::Rng& rng,
              int64_t mlp_ratio = 2);

  /// x: [B, H, W, D, T, C] on the constructor's grid.  When
  /// `use_checkpoint` is true the whole block runs under activation
  /// checkpointing (Sec. III-D's memory optimization at block
  /// granularity).
  Tensor forward(const Tensor& x, bool use_checkpoint = false) const;

 private:
  Tensor forward_impl(const Tensor& x) const;

  /// SW-MSA shifts half the window on each axis with at least two
  /// windows (elsewhere the roll would only permute window content).
  WindowPlan plan_;
  std::shared_ptr<nn::LayerNorm> norm1_, norm2_;
  std::shared_ptr<nn::MultiHeadSelfAttention> attn_;
  std::shared_ptr<nn::Mlp> mlp_;
};

/// W-MSA block followed by SW-MSA block — "two successive 4D Swin
/// Transformer blocks" of Fig. 3(b).
class SwinBlockPair4d : public nn::Module {
 public:
  SwinBlockPair4d(int64_t dim, int64_t heads, const Grid4d& grid,
                  Window4d window, util::Rng& rng);

  Tensor forward(const Tensor& x, bool use_checkpoint = false) const;

 private:
  std::shared_ptr<SwinBlock4d> wmsa_, swmsa_;
};

}  // namespace coastal::core
