#include "nn/layers.hpp"

#include <cmath>

#include "tensor/kernels.hpp"
#include "util/check.hpp"

namespace coastal::nn {

namespace ker = tensor::kernels;

namespace {
thread_local int64_t t_batch_stat_groups = 1;
}  // namespace

BatchStatScope::BatchStatScope(int64_t groups) : prev_(t_batch_stat_groups) {
  COASTAL_CHECK_MSG(groups >= 1, "BatchStatScope: groups must be >= 1");
  t_batch_stat_groups = groups;
}

BatchStatScope::~BatchStatScope() { t_batch_stat_groups = prev_; }

int64_t BatchStatScope::groups() { return t_batch_stat_groups; }

Linear::Linear(int64_t in_features, int64_t out_features, util::Rng& rng,
               bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  // Xavier-uniform init, standard for transformer projections.
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight = register_parameter(
      "weight", Tensor::uniform({in_, out_}, rng, -bound, bound));
  if (bias) {
    this->bias = register_parameter("bias", Tensor::zeros({out_}));
  }
}

Tensor Linear::forward(const Tensor& x) const {
  return linear(x, weight, has_bias_ ? bias : Tensor());
}

Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  COASTAL_CHECK(weight.ndim() == 2);
  const int64_t in = weight.shape()[0], out = weight.shape()[1];
  const bool has_bias = bias.defined();
  COASTAL_CHECK_MSG(x.ndim() >= 1 && x.shape().back() == in,
                    "Linear: input features "
                        << (x.ndim() ? x.shape().back() : 0) << " != " << in);
  COASTAL_CHECK(!has_bias || bias.numel() == out);
  const int64_t rows = x.numel() / in;
  tensor::Shape out_shape = x.shape();
  out_shape.back() = out;
  tensor::Storage y = tensor::Storage::zeros(rows * out);
  ker::gemm(x.raw(), weight.raw(), y.data(), rows, in, out);
  if (has_bias) {
    ker::binary_broadcast(ker::BinOp::kAdd, y.data(), bias.raw(), y.data(),
                          {rows, out}, {out, 1}, {0, 1});
  }
  if (!tensor::grad_enabled()) {
    return Tensor::from_storage(out_shape, std::move(y));
  }
  std::vector<Tensor> parents{x, weight};
  if (has_bias) parents.push_back(bias);
  Tensor xs = x, w = weight;
  return tensor::custom_op(
      std::move(out_shape), std::move(y), "linear", std::move(parents),
      [xs, w, rows, in, out, has_bias](const Tensor& g) -> std::vector<Tensor> {
        // dx = g · Wᵀ
        tensor::Storage wt = tensor::Storage::uninit(in * out);
        ker::transpose_last2(w.raw(), wt.data(), 1, in, out);
        tensor::Storage gx = tensor::Storage::zeros(rows * in);
        ker::gemm(g.raw(), wt.data(), gx.data(), rows, out, in);
        // dW = xᵀ · g (the sum over rows runs in row order)
        tensor::Storage xt = tensor::Storage::uninit(rows * in);
        ker::transpose_last2(xs.raw(), xt.data(), 1, rows, in);
        tensor::Storage gw = tensor::Storage::zeros(in * out);
        ker::gemm(xt.data(), g.raw(), gw.data(), in, rows, out);
        std::vector<Tensor> grads{
            Tensor::from_storage(xs.shape(), std::move(gx)),
            Tensor::from_storage({in, out}, std::move(gw))};
        if (has_bias) {
          tensor::Storage gb = tensor::Storage::zeros(out);
          const float* pg = g.raw();
          for (int64_t r = 0; r < rows; ++r)
            for (int64_t j = 0; j < out; ++j) gb[j] += pg[r * out + j];
          grads.push_back(Tensor::from_storage({out}, std::move(gb)));
        }
        return grads;
      });
}

LayerNorm::LayerNorm(int64_t dim, float eps) : eps_(eps) {
  gamma = register_parameter("gamma", Tensor::ones({dim}));
  beta = register_parameter("beta", Tensor::zeros({dim}));
}

Tensor LayerNorm::forward(const Tensor& x) const {
  return x.layer_norm(gamma, beta, eps_);
}

BatchNorm::BatchNorm(int64_t channels, float eps, float momentum,
                     bool use_batch_stats_in_eval)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      use_batch_stats_in_eval_(use_batch_stats_in_eval) {
  gamma = register_parameter("gamma", Tensor::ones({channels}));
  beta = register_parameter("beta", Tensor::zeros({channels}));
  running_mean = register_buffer("running_mean", Tensor::zeros({channels}));
  running_var = register_buffer("running_var", Tensor::ones({channels}));
}

Tensor BatchNorm::forward(const Tensor& x, const tensor::View& rows,
                          const std::vector<size_t>& order,
                          tensor::Shape shape) {
  const size_t k = rows.shape.size() - 1;  // row axes
  COASTAL_CHECK_MSG(rows.shape.size() >= 2 && rows.shape.back() == channels_ &&
                        rows.strides.size() == rows.shape.size() &&
                        order.size() == k,
                    "BatchNorm: expected rows [...," << channels_ << "], got "
                                                     << tensor::shape_str(rows.shape));
  tensor::check_view_within(rows, x.numel());
  // The output: row axes in `order`, then channels, contiguous.
  tensor::Shape out_dims;
  for (size_t i : order) out_dims.push_back(rows.shape[i]);
  out_dims.push_back(channels_);
  COASTAL_CHECK(tensor::numel(shape) == tensor::numel(out_dims));
  const tensor::Shape out_st = tensor::strides_of(out_dims);

  const bool batch_stats = training() || use_batch_stats_in_eval_;
  const int64_t groups = training() ? 1 : BatchStatScope::groups();
  const int64_t nrows = tensor::numel(rows.shape) / channels_;
  if (batch_stats && groups > 1) {
    COASTAL_CHECK_MSG(nrows % groups == 0,
                      "BatchStatScope groups " << groups
                                               << " do not divide batch rows "
                                               << nrows);
  }
  const bool record =
      tensor::grad_enabled() &&
      (x.requires_grad() || x.has_grad_fn() || gamma.requires_grad() ||
       beta.requires_grad());
  if (!training() && !record && rows.strides.back() == 1) {
    // Eval: one kernel walks the rows where they lie, in reduction order,
    // and writes them straight into the output layout.
    const tensor::Shape dims(rows.shape.begin(), rows.shape.end() - 1);
    const tensor::Shape in_st(rows.strides.begin(), rows.strides.end() - 1);
    tensor::Shape y_st(k);
    for (size_t i = 0; i < k; ++i) y_st[order[i]] = out_st[i];
    tensor::Storage y = tensor::Storage::uninit(tensor::numel(out_dims));
    ker::batch_norm(x.raw() + rows.offset, in_st, y.data(), y_st, dims,
                    channels_, batch_stats ? groups : 1, gamma.raw(),
                    beta.raw(), eps_,
                    batch_stats ? nullptr : running_mean.raw(),
                    batch_stats ? nullptr : running_var.raw());
    return Tensor::from_storage(shape, std::move(y));
  }

  // Recorded or training: the statistics as differentiable ops over the
  // rows gathered into reduction order, [rows, C].
  Tensor xc = tensor::gather(x, rows, {nrows, channels_});
  Tensor y;
  if (batch_stats && groups > 1) {
    // Micro-batched eval (see BatchStatScope): statistics per group of
    // consecutive batch entries.  mean_axis(1) over [G, R, C] accumulates
    // each group's R rows in the same ascending order as the [R, C]
    // axis-0 reduction below, so every group's output is bitwise what a
    // standalone B == 1 forward produces.
    Tensor x3 = xc.reshape({groups, nrows / groups, channels_});
    Tensor mean = x3.mean_axis(1, /*keepdim=*/true);          // [G, 1, C]
    Tensor centered = x3.sub(mean);
    Tensor var = centered.mul(centered).mean_axis(1, true);   // [G, 1, C]
    y = centered.div(var.add_scalar(eps_).sqrt())
            .reshape({nrows, channels_});
  } else if (batch_stats) {
    Tensor mean = xc.mean_axis(0, /*keepdim=*/true);              // [1, C]
    Tensor centered = xc.sub(mean);
    Tensor var = centered.mul(centered).mean_axis(0, true);       // [1, C]
    y = centered.div(var.add_scalar(eps_).sqrt());
    // Update running stats outside the graph (training only).
    if (training()) {
      tensor::NoGradGuard ng;
      const float m = momentum_;
      float* rm = running_mean.raw();
      float* rv = running_var.raw();
      const float* bm = mean.raw();
      const float* bv = var.raw();
      // Unbiased variance for the running buffer, as torch does.
      const auto n = static_cast<float>(nrows);
      const float unbias = n > 1.0f ? n / (n - 1.0f) : 1.0f;
      for (int64_t c = 0; c < channels_; ++c) {
        rm[c] = (1.0f - m) * rm[c] + m * bm[c];
        rv[c] = (1.0f - m) * rv[c] + m * bv[c] * unbias;
      }
    }
  } else {
    y = xc.sub(running_mean.reshape({1, channels_}))
            .div(running_var.reshape({1, channels_}).add_scalar(eps_).sqrt());
  }
  y = y.mul(gamma).add(beta);
  // From reduction order to the output layout.
  const tensor::Shape y_st = tensor::strides_of(rows.shape);
  tensor::View out{{}, {}, 0};
  for (size_t i : order) {
    out.shape.push_back(rows.shape[i]);
    out.strides.push_back(y_st[i]);
  }
  out.shape.push_back(channels_);
  out.strides.push_back(1);
  return tensor::gather(y, out, std::move(shape));
}

Mlp::Mlp(int64_t dim, int64_t hidden, util::Rng& rng) {
  fc1_ = register_module<Linear>("fc1", dim, hidden, rng);
  fc2_ = register_module<Linear>("fc2", hidden, dim, rng);
}

Tensor Mlp::forward(const Tensor& x) const {
  return fc2_->forward(fc1_->forward(x).gelu());
}

}  // namespace coastal::nn
