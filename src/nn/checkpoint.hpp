#pragma once

/// \file checkpoint.hpp
/// Activation checkpointing (Sec. III-D of the paper).
///
/// A checkpointed region runs its forward pass with autograd recording
/// disabled, so none of its interior activations are kept alive by the
/// graph; only the region's *inputs* are saved.  When the backward sweep
/// reaches the region, the forward is recomputed with recording enabled
/// and gradients flow through the freshly built local graph.  This trades
/// one extra forward for the interior-activation memory — which is what
/// let the paper double the per-GPU batch size (Fig. 9/10).

#include <functional>
#include <vector>

#include "tensor/tensor.hpp"

namespace coastal::nn {

using tensor::Tensor;

/// `fn` must be a pure function of its inputs (module weights may be
/// captured; they are re-read at recompute time, which is safe because the
/// optimizer only mutates weights after backward completes).
///
/// `params` lists the trainable tensors `fn` captures.  They are attached
/// as graph parents so the region is recorded even when no *input*
/// requires grad, and their gradients are produced by the recompute pass
/// (accumulated directly into their .grad buffers).
///
/// Gradients match an uncheckpointed run bitwise because every op runs the
/// same kernels whether or not autograd records (layer norm, for one,
/// keeps its stash-free inference loop identical to the training loop).
Tensor checkpoint(const std::function<Tensor(const std::vector<Tensor>&)>& fn,
                  const std::vector<Tensor>& inputs,
                  const std::vector<Tensor>& params = {});

}  // namespace coastal::nn
