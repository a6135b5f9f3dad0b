#pragma once

/// \file conv.hpp
/// Convolution layers for the patch-embedding encoder front end and the
/// transposed-convolution decoder.
///
/// The surrogate only ever uses convolutions whose kernel equals the
/// stride: patch embedding is a kernel==stride conv (ViT-style), patch
/// recovery is a kernel==stride transposed conv, and the channel-mixing
/// convs are 1x1.  Restricting to these cases lets every conv be an exact
/// space<->channel rearrangement plus one Linear, which keeps the whole
/// model on the (well-tested) matmul path with correct gradients.  The
/// constructors enforce the restriction loudly.
///
/// Layout: channels-last.  A patch conv reads its input through a field
/// view — a tensor::View with axes [B, F, s1..sk, C] over any buffer
/// layout — so one gather builds the GEMM rows in (batch, frame, block)
/// order and the caller keeps whatever layout suits it.  F ("frames") is
/// a second batch axis: time in the surrogate, 1 for a plain image.

#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace coastal::nn {

/// The field view [B, F, s1..sk, C] of a contiguous tensor of `shape`:
/// batch axis 0, frames `frame_axis`, channels `channel_axis`, and the
/// remaining axes, in order, as the spatial ones.
tensor::View field_view(const tensor::Shape& shape, size_t frame_axis,
                        size_t channel_axis);

/// Non-overlapping (kernel == stride) N-d convolution: partitions each
/// spatial axis into blocks of the kernel size and linearly projects each
/// block.  Exactly torch's Conv{2,3}d(in, out, k, stride=k), per frame.
class PatchConvNd : public Module {
 public:
  PatchConvNd(int64_t in_channels, int64_t out_channels,
              std::vector<int64_t> kernel, util::Rng& rng);

  /// `field` of x: [B, F, d1..dk, Cin] with each di divisible by
  /// kernel[i].  Returns [B, F, d1/k1 .. dk/kk, Cout], rows in GEMM order.
  Tensor forward(const Tensor& x, const tensor::View& field) const;

  int64_t in_channels() const { return in_; }
  int64_t out_channels() const { return out_; }
  const std::vector<int64_t>& kernel() const { return kernel_; }

 private:
  int64_t in_, out_;
  std::vector<int64_t> kernel_;
  std::shared_ptr<Linear> proj_;
};

/// Non-overlapping (kernel == stride) N-d transposed convolution: the exact
/// adjoint rearrangement of PatchConvNd.  Equals
/// torch's ConvTranspose{2,3}d(in, out, k, stride=k), per frame.
class PatchConvTransposeNd : public Module {
 public:
  PatchConvTransposeNd(int64_t in_channels, int64_t out_channels,
                       std::vector<int64_t> kernel, util::Rng& rng);

  /// The projection of every coarse cell before it is laid out: `y`
  /// holds per row (b, f, c1..ck) a Cout-channel block at each kernel
  /// offset, and `fine` views y as the upsampled field
  /// [B, F, c1, k1, .., ck, kk, Cout] (fine index c_i·k_i + offset).
  /// With nothing to differentiate the blocks are offset-major — the
  /// weight's columns permuted, every output the same GEMM dot product —
  /// so each offset's channels are contiguous; otherwise they follow the
  /// weight's (Cout, k1..kk) column order.
  struct Projection {
    Tensor y;
    tensor::View fine;
  };
  /// `field` of x: [B, F, d1..dk, Cin].
  Projection project(const Tensor& x, const tensor::View& field) const;

  int64_t in_channels() const { return in_; }
  int64_t out_channels() const { return out_; }
  const std::vector<int64_t>& kernel() const { return kernel_; }

 private:
  int64_t in_, out_;
  std::vector<int64_t> kernel_;
  std::shared_ptr<Linear> proj_;
};

/// 1x1 convolution — a per-location channel mix over a channels-last
/// tensor [..., Cin] -> [..., Cout].
class PointwiseConvNd : public Module {
 public:
  PointwiseConvNd(int64_t in_channels, int64_t out_channels, util::Rng& rng);

  Tensor forward(const Tensor& x) const;

 private:
  std::shared_ptr<Linear> proj_;
};

}  // namespace coastal::nn
