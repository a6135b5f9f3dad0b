#include "nn/optimizer.hpp"

#include <cmath>

namespace coastal::nn {

Adam::Adam(std::vector<Tensor> params, float lr_in, float beta1, float beta2,
           float eps, float weight_decay, bool decoupled)
    : lr(lr_in),
      params_(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay),
      decoupled_(decoupled) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(static_cast<size_t>(params_[i].numel()), 0.0f);
    v_[i].assign(static_cast<size_t>(params_[i].numel()), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor g = params_[i].grad();
    if (!g.defined()) continue;
    float* p = params_[i].raw();
    const float* gp = g.raw();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = params_[i].numel();
    for (int64_t j = 0; j < n; ++j) {
      float grad = gp[j];
      if (weight_decay_ != 0.0f && !decoupled_) grad += weight_decay_ * p[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad * grad;
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      float update = lr * mhat / (std::sqrt(vhat) + eps_);
      if (weight_decay_ != 0.0f && decoupled_) update += lr * weight_decay_ * p[j];
      p[j] -= update;
    }
  }
}

float clip_grad_norm(const std::vector<Tensor>& params, float max_norm) {
  double total_sq = 0.0;
  for (const auto& p : params) {
    Tensor g = p.grad();
    if (!g.defined()) continue;
    const float* gp = g.raw();
    const int64_t n = g.numel();
    for (int64_t j = 0; j < n; ++j)
      total_sq += static_cast<double>(gp[j]) * gp[j];
  }
  const float norm = static_cast<float>(std::sqrt(total_sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (const auto& p : params) {
      Tensor g = p.grad();
      if (!g.defined()) continue;
      float* gp = g.raw();
      const int64_t n = g.numel();
      for (int64_t j = 0; j < n; ++j) gp[j] *= scale;
    }
  }
  return norm;
}

}  // namespace coastal::nn
