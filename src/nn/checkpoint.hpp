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
Tensor checkpoint(const std::function<Tensor(const std::vector<Tensor>&)>& fn,
                  const std::vector<Tensor>& inputs,
                  const std::vector<Tensor>& params = {});

/// True while the calling thread is inside a checkpoint region's initial
/// (recording-disabled) forward.
///
/// Contract for ops with a fast path: the region's saved output must match
/// the backward-time recompute (which runs with recording enabled), so a
/// fast path may ignore this guard **iff it is recompute-consistent** —
/// its route depends only on problem size/config, never on whether
/// recording is on, and both modes run the same kernel bitwise.  Fused
/// attention satisfies this: the initial pass and the recompute route on
/// the same explicit `attn_fused_min_n` threshold (N alone, never the
/// recording state), so it does not consult this guard.
/// Only a fast path whose recording-mode equivalent diverges numerically
/// from its inference form must check this and fall back to its reference
/// implementation inside regions.
///
/// Corollary: recompute-consistency assumes the routing inputs are stable
/// between a region's initial forward and its backward-time recompute.
/// Mutating `tensor::kernels::config()` (e.g. `attn_fused_min_n`,
/// `attn_bq`/`attn_bkv`) between a checkpointed forward and
/// `loss.backward()` can route or block the recompute differently from
/// the saved output and silently drift gradients — change kernel config
/// only between whole training steps.
bool inside_checkpoint_region();

}  // namespace coastal::nn
