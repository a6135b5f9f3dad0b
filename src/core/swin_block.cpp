#include "core/swin_block.hpp"

namespace coastal::core {

namespace {

Window4d shift_for(const Grid4d& grid, const Window4d& window, bool shifted) {
  Window4d s{};
  if (!shifted) return s;
  for (size_t a = 0; a < 4; ++a) {
    s[a] = (grid[a] > window[a]) ? window[a] / 2 : 0;
  }
  return s;
}

}  // namespace

SwinBlock4d::SwinBlock4d(int64_t dim, int64_t heads, const Grid4d& grid,
                         Window4d window, bool shifted, util::Rng& rng,
                         int64_t mlp_ratio)
    : plan_(grid, window, shift_for(grid, window, shifted)) {
  norm1_ = register_module<nn::LayerNorm>("norm1", dim);
  norm2_ = register_module<nn::LayerNorm>("norm2", dim);
  attn_ = register_module<nn::MultiHeadSelfAttention>("attn", dim, heads, rng);
  mlp_ = register_module<nn::Mlp>("mlp", dim, dim * mlp_ratio, rng);
}

Tensor SwinBlock4d::forward_impl(const Tensor& x) const {
  // ---- attention branch: z_hat = (S)W-MSA(LN(z)) + z -------------------
  // Partition gathers the (rolled) windows' tokens, [B*nW, N, C], in one
  // pass; reverse scatters the attention output back to the grid.  The
  // plan's [nW, N, N] mask (shifted blocks only) biases each window's
  // scores.
  Tensor attended = attn_->forward(norm1_->forward(plan_.partition(x)),
                                   plan_.mask());
  Tensor z = x.add(plan_.reverse(attended));

  // ---- MLP branch: z = MLP(LN(z_hat)) + z_hat ---------------------------
  // Pointwise over the channels-last map itself: no windowing.
  return z.add(mlp_->forward(norm2_->forward(z)));
}

Tensor SwinBlock4d::forward(const Tensor& x, bool use_checkpoint) const {
  // Checkpointing only pays during training; nn::checkpoint itself no-ops
  // with autograd off, so this early-out only skips assembling the lambda
  // and the parameters() list for a wrapper that would do nothing.
  if (!use_checkpoint || !tensor::grad_enabled()) return forward_impl(x);
  return nn::checkpoint(
      [this](const std::vector<Tensor>& inputs) {
        return forward_impl(inputs[0]);
      },
      {x}, parameters());
}

SwinBlockPair4d::SwinBlockPair4d(int64_t dim, int64_t heads,
                                 const Grid4d& grid, Window4d window,
                                 util::Rng& rng) {
  wmsa_ = register_module<SwinBlock4d>("wmsa", dim, heads, grid, window,
                                       /*shifted=*/false, rng);
  swmsa_ = register_module<SwinBlock4d>("swmsa", dim, heads, grid, window,
                                        /*shifted=*/true, rng);
}

Tensor SwinBlockPair4d::forward(const Tensor& x, bool use_checkpoint) const {
  return swmsa_->forward(wmsa_->forward(x, use_checkpoint), use_checkpoint);
}

}  // namespace coastal::core
