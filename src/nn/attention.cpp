#include "nn/attention.hpp"

#include <cmath>

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

Tensor fused_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                       const Tensor& mask, float scale) {
  COASTAL_CHECK(q.ndim() == 4 && k.shape() == q.shape() &&
                v.shape() == q.shape());
  const int64_t B = q.shape()[0];
  const int64_t heads = q.shape()[1];
  const int64_t N = q.shape()[2];
  const int64_t hd = q.shape()[3];
  const int64_t nbatch = B * heads;

  // The fused kernels treat the mask as a constant additive bias.  Reject
  // any recorded mask gradient loudly — even when q/k/v record nothing —
  // instead of silently returning a graph that never populates mask.grad.
  COASTAL_CHECK_MSG(!(tensor::grad_enabled() && carries_graph(mask)),
                    "fused_attention treats the mask as a constant bias; "
                    "a differentiable mask must take the unfused path");
  const bool record = tensor::grad_enabled() &&
                      (carries_graph(q) || carries_graph(k) ||
                       carries_graph(v));

  // Per-(batch × head) additive-bias offsets: batch b uses mask group
  // b % groups (window index is the fastest-varying component of B).
  // Inference rebuilds them into per-thread workspace scratch (retained
  // capacity — no allocation in steady state); the training path keeps a
  // local vector because the backward lambda captures it by value.
  const float* mask_ptr = nullptr;
  std::vector<int64_t> mask_off_local;
  std::vector<int64_t>& mask_off =
      record ? mask_off_local : tensor::workspace().mask_off;
  mask_off.clear();
  if (mask.defined()) {
    COASTAL_CHECK(mask.ndim() == 3 && mask.shape()[1] == N &&
                  mask.shape()[2] == N);
    const int64_t groups = mask.shape()[0];
    COASTAL_CHECK_MSG(B % groups == 0,
                      "attention mask groups " << groups
                                               << " do not divide batch " << B);
    mask_ptr = mask.raw();
    mask_off.resize(static_cast<size_t>(nbatch));
    for (int64_t e = 0; e < nbatch; ++e)
      mask_off[static_cast<size_t>(e)] = ((e / heads) % groups) * N * N;
  }

  tensor::Storage out = tensor::Storage::uninit(nbatch * N * hd);
  if (!record) {
    ker::attention_fused(q.raw(), k.raw(), v.raw(), out.data(), nbatch, N, N,
                         hd, scale, mask_ptr, mask_off);
    return Tensor::from_storage({B, heads, N, hd}, std::move(out));
  }

  // Training forward: same kernel, but save the per-row (max, exp-sum)
  // statistics — 2 floats per query row instead of the N scores the
  // unfused path stashes — and record a node whose backward re-streams
  // K/V blocks (kernels::attention_fused_backward).
  auto stats =
      std::make_shared<std::vector<float>>(static_cast<size_t>(nbatch * N * 2));
  ker::attention_fused(q.raw(), k.raw(), v.raw(), out.data(), nbatch, N, N,
                       hd, scale, mask_ptr, mask_off, stats->data());
  // The backward needs O (for Δ = Σ dO∘O), which is exactly this node's
  // own output.  Capturing the result Tensor would create a node → lambda
  // → result cycle and leak the graph; copying the buffer (the
  // softmax_lastdim idiom) would keep a second [B, h, N, d] alive per
  // layer.  Instead capture a weak reference, filled in after custom_op
  // returns: the engine only invokes a node's backward through its output
  // impl, so the lock cannot fail while a legitimate backward runs.
  auto o_slot = std::make_shared<std::weak_ptr<tensor::TensorImpl>>();
  Tensor qt = q, kt = k, vt = v, mt = mask;
  std::vector<Tensor> parents = {q, k, v};
  if (mask.defined()) parents.push_back(mask);
  const bool has_mask = mask.defined();
  Tensor result = tensor::custom_op(
      {B, heads, N, hd}, std::move(out), "fused_attention",
      std::move(parents),
      [qt, kt, vt, mt, o_slot, stats, mask_off, has_mask, nbatch, B, heads,
       N, hd, scale](const Tensor& g) -> std::vector<Tensor> {
        const std::shared_ptr<tensor::TensorImpl> o_impl = o_slot->lock();
        COASTAL_CHECK_MSG(o_impl != nullptr,
                          "fused_attention backward ran without its output");
        tensor::Storage dq = tensor::Storage::uninit(nbatch * N * hd);
        tensor::Storage dk = tensor::Storage::uninit(nbatch * N * hd);
        tensor::Storage dv = tensor::Storage::uninit(nbatch * N * hd);
        ker::attention_fused_backward(
            qt.raw(), kt.raw(), vt.raw(), o_impl->data.data(), g.raw(),
            stats->data(), dq.data(), dk.data(), dv.data(), nbatch, N, N, hd,
            scale, has_mask ? mt.raw() : nullptr, mask_off);
        std::vector<Tensor> grads;
        grads.reserve(has_mask ? 4 : 3);
        grads.push_back(
            Tensor::from_storage({B, heads, N, hd}, std::move(dq)));
        grads.push_back(
            Tensor::from_storage({B, heads, N, hd}, std::move(dk)));
        grads.push_back(
            Tensor::from_storage({B, heads, N, hd}, std::move(dv)));
        if (has_mask) grads.emplace_back();  // constant additive bias
        return grads;
      });
  *o_slot = result.impl();
  return result;
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

  // The fused kernels run only above the explicit attn_fused_min_n
  // threshold (0 = never).  The gate depends on N and the config alone:
  // it ignores recording state, so a checkpointed region's initial pass
  // and its backward-time recompute take the same path bitwise (see
  // nn::inside_checkpoint_region()), and it ignores the batch size, so a
  // request's kernel path never depends on what the server stacked it
  // with (the bitwise-serial serving contract).  A mask that carries a
  // graph takes the unfused reference path, since the fused kernel treats
  // the mask as a constant bias.
  const int64_t min_n = ker::config().attn_fused_min_n;
  const bool mask_grad = carries_graph(mask);
  Tensor out;  // [B, h, N, d]
  if (min_n > 0 && N >= min_n && !mask_grad) {
    out = fused_attention(q, split_qkv_head(qkv, heads_, 1), v, mask, scale_);
  } else {
    // K is split straight into Kᵀ [B, h, d, N].
    Tensor scores = q.matmul(split_qkv_head(qkv, heads_, 1, true))
                        .mul_scalar(scale_);  // [B, h, N, N]
    if (mask.defined()) scores = add_window_mask(scores, mask);
    Tensor attn = scores.softmax_lastdim();
    out = attn.matmul(v);
  }
  out = merge_heads(out);                          // [B, N, C]
  return proj_->forward(out);
}

}  // namespace coastal::nn
