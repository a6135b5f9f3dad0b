#include "nn/checkpoint.hpp"

namespace coastal::nn {

Tensor checkpoint(const std::function<Tensor(const std::vector<Tensor>&)>& fn,
                  const std::vector<Tensor>& inputs,
                  const std::vector<Tensor>& params) {
  // If no grad is being recorded anyway (inference), just run the region.
  if (!tensor::grad_enabled()) return fn(inputs);

  // Forward without recording: interior activations die immediately.
  tensor::Shape out_shape;
  tensor::Storage out_data;
  {
    tensor::NoGradGuard ng;
    Tensor out = fn(inputs);
    out_shape = out.shape();
    out_data = tensor::Storage::copy_of(out.raw(), out.numel());
  }

  const size_t nparams = params.size();
  auto backward = [fn, inputs,
                   nparams](const Tensor& grad_out) -> std::vector<Tensor> {
    // Recompute with recording on, rooted at detached leaf copies of the
    // inputs, then backprop the incoming gradient through the local graph.
    std::vector<Tensor> leaves;
    leaves.reserve(inputs.size());
    for (const auto& t : inputs) {
      Tensor leaf = t.detach();
      leaf.set_requires_grad(true);
      leaves.push_back(leaf);
    }
    Tensor out;
    {
      tensor::GradModeGuard grad_on(true);
      out = fn(leaves);
      out.backward(grad_out);
    }
    std::vector<Tensor> grads;
    grads.reserve(leaves.size() + nparams);
    for (auto& leaf : leaves) {
      grads.push_back(leaf.grad());  // may be undefined if unused
    }
    // Param grads were accumulated directly into their .grad buffers by
    // the recompute backward; report "no edge gradient" for those slots.
    for (size_t i = 0; i < nparams; ++i) grads.emplace_back();
    return grads;
  };

  std::vector<Tensor> parents = inputs;
  parents.insert(parents.end(), params.begin(), params.end());
  return tensor::custom_op(std::move(out_shape), std::move(out_data),
                           "checkpoint", std::move(parents),
                           std::move(backward));
}

}  // namespace coastal::nn
