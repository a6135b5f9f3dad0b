#include "nn/attention.hpp"

#include <cmath>

#include "obs/profile.hpp"
#include "tensor/kernels.hpp"

namespace coastal::nn {

namespace ker = tensor::kernels;

namespace {

bool carries_graph(const tensor::Tensor& t) {
  return t.defined() && (t.requires_grad() || t.has_grad_fn());
}

/// scores [B, h, N, N] + mask [groups, N, N], batch entry b taking mask
/// group b % groups: one broadcast add over the [B/groups, groups, h, N, N]
/// view, no reshape copies.  The mask gradient (a mask that trains) sums
/// over the same view in the same order as a broadcast add's would.
Tensor add_window_mask(const Tensor& scores, const Tensor& mask) {
  const tensor::Shape& s = scores.shape();
  const int64_t B = s[0], heads = s[1], N = s[2];
  const int64_t groups = mask.shape()[0];
  const tensor::Shape view{B / groups, groups, heads, N, N};
  const tensor::Shape mask_view{1, groups, 1, N, N};
  tensor::Storage out = tensor::Storage::uninit(scores.numel());
  ker::binary_broadcast(ker::BinOp::kAdd, scores.raw(), mask.raw(),
                        out.data(), view, tensor::broadcast_strides(view, view),
                        tensor::broadcast_strides(mask_view, view));
  if (!tensor::grad_enabled()) {
    return Tensor::from_storage(s, std::move(out));
  }
  const tensor::Shape mask_shape = mask.shape();
  const bool mask_grad = carries_graph(mask);
  return tensor::custom_op(
      s, std::move(out), "add_window_mask", {scores, mask},
      [view, mask_view, mask_shape,
       mask_grad](const Tensor& g) -> std::vector<Tensor> {
        if (!mask_grad) return {g, Tensor()};
        return {g, g.reshape(view).sum_to(mask_view).reshape(mask_shape)};
      });
}

}  // namespace

Tensor split_qkv_head(const Tensor& qkv, int64_t heads, int which,
                      bool transposed) {
  COASTAL_CHECK(qkv.ndim() == 3 && which >= 0 && which < 3);
  const int64_t B = qkv.shape()[0];
  const int64_t N = qkv.shape()[1];
  const int64_t C = qkv.shape()[2] / 3;
  COASTAL_CHECK(qkv.shape()[2] == 3 * C && C % heads == 0);
  const int64_t hd = C / heads;

  // out[b, h, n, d] (or [b, h, d, n]) = qkv[b, n, which*C + h*hd + d]: a
  // strided gather, and its backward the matching scatter.
  const tensor::Shape shape = transposed ? tensor::Shape{B, heads, hd, N}
                                         : tensor::Shape{B, heads, N, hd};
  const tensor::Shape strides = transposed
                                    ? tensor::Shape{N * 3 * C, hd, 1, 3 * C}
                                    : tensor::Shape{N * 3 * C, hd, 3 * C, 1};
  tensor::Storage out = tensor::Storage::uninit(B * heads * N * hd);
  ker::permute_gather(qkv.raw() + which * C, out.data(), shape, strides);

  return tensor::custom_op(
      shape, std::move(out), "split_qkv_head", {qkv},
      [B, N, C, which, shape, strides](const Tensor& g) -> std::vector<Tensor> {
        // Scatter g back into a zero [B, N, 3C] buffer.
        tensor::Storage gq = tensor::Storage::zeros(B * N * 3 * C);
        ker::permute_scatter(g.raw(), gq.data() + which * C, shape, strides);
        return {Tensor::from_storage({B, N, 3 * C}, std::move(gq))};
      });
}

Tensor merge_heads(const Tensor& x) {
  COASTAL_CHECK(x.ndim() == 4);
  const int64_t B = x.shape()[0];
  const int64_t heads = x.shape()[1];
  const int64_t N = x.shape()[2];
  const int64_t hd = x.shape()[3];
  const int64_t C = heads * hd;

  // out[b, n, h*hd + d] = x[b, h, n, d]
  tensor::Storage out = tensor::Storage::uninit(B * N * C);
  ker::permute_gather(x.raw(), out.data(), {B, N, heads, hd},
                      {heads * N * hd, hd, N * hd, 1});

  return tensor::custom_op(
      {B, N, C}, std::move(out), "merge_heads", {x},
      [B, N, C, heads, hd](const Tensor& g) -> std::vector<Tensor> {
        // The inverse is also a pure gather: gx[b, h, n, d] = g[b, n, h*hd+d].
        tensor::Storage gx = tensor::Storage::uninit(B * heads * N * hd);
        ker::permute_gather(g.raw(), gx.data(), {B, heads, N, hd},
                            {N * C, hd, C, 1});
        return {Tensor::from_storage({B, heads, N, hd}, std::move(gx))};
      });
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t heads,
                                               util::Rng& rng)
    : dim_(dim), heads_(heads), head_dim_(dim / heads) {
  COASTAL_CHECK_MSG(dim % heads == 0,
                    "attention dim " << dim << " not divisible by " << heads);
  scale_ = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  qkv_ = register_module<Linear>("qkv", dim, 3 * dim, rng);
  proj_ = register_module<Linear>("proj", dim, dim, rng);
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x,
                                       const Tensor& mask) const {
  COASTAL_CHECK(x.ndim() == 3 && x.shape()[2] == dim_);
  const int64_t B = x.shape()[0];
  const int64_t N = x.shape()[1];

  // Head slices come straight out of the packed [B, N, 3C] projection —
  // no [3, B, h, N, d] permute or reshape copies.
  Tensor qkv = qkv_->forward(x);
  Tensor q = split_qkv_head(qkv, heads_, 0);
  Tensor v = split_qkv_head(qkv, heads_, 2);

  if (mask.defined()) {
    COASTAL_CHECK(mask.ndim() == 3 && mask.shape()[1] == N &&
                  mask.shape()[2] == N);
    COASTAL_CHECK_MSG(B % mask.shape()[0] == 0,
                      "attention mask groups " << mask.shape()[0]
                                               << " do not divide batch " << B);
  }

  Tensor out;  // [B, h, N, d]
  {
    obs::ScopedStage stage(obs::Stage::kAttention);
    // K is split straight into Kᵀ [B, h, d, N].
    Tensor scores = q.matmul(split_qkv_head(qkv, heads_, 1, true))
                        .mul_scalar(scale_);  // [B, h, N, N]
    if (mask.defined()) scores = add_window_mask(scores, mask);
    out = scores.softmax_lastdim().matmul(v);
  }
  out = merge_heads(out);  // [B, N, C]
  return proj_->forward(out);
}

}  // namespace coastal::nn
