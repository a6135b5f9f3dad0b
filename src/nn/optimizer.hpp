#pragma once

/// \file optimizer.hpp
/// The first-order optimizer over a parameter list.  Parameters are Tensor
/// handles shared with the model; step() updates them in place (outside
/// the autograd graph, like torch's optimizers).

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace coastal::nn {

using tensor::Tensor;

/// Adam / AdamW (decoupled weight decay when weight_decay > 0 and
/// `decoupled` is true), the optimizer used for surrogate training.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f,
       bool decoupled = true);
  void step();
  void zero_grad() {
    for (auto& p : params_) p.zero_grad();
  }

  const std::vector<Tensor>& params() const { return params_; }

  float lr;

 private:
  std::vector<Tensor> params_;
  float beta1_, beta2_, eps_, weight_decay_;
  bool decoupled_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

/// Global L2-norm gradient clipping; returns the pre-clip norm.
float clip_grad_norm(const std::vector<Tensor>& params, float max_norm);

}  // namespace coastal::nn
