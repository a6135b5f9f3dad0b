#pragma once

/// \file patch_ops.hpp
/// Patch embedding / merging / positional encoding for the 4-D encoder
/// (Sec. III-C).  All ops treat time as a separate axis: patches and
/// merges are purely spatial, exactly as the paper specifies ("patch
/// merging performs on the three spatial dimensions but not the temporal
/// dimension").  Feature maps are channels-last [B, H, W, D, T, C]; the
/// patch convs read them (time as the frame axis) through a field view.

#include <memory>

#include "core/window4d.hpp"
#include "nn/conv.hpp"

namespace coastal::core {

/// The [B, T, H, W, D, C] field view of a channels-last feature map
/// [B, H, W, D, T, C] (time as the conv frame axis).
tensor::View feature_view(const Tensor& x);

/// Joint 3-D + 2-D patch embedding: the 3-D variables (u, v, w) are
/// patched with (ph, pw, pd) and the 2-D variable (zeta) with (ph, pw);
/// both are projected to the same C-dim latent space and concatenated
/// along depth (the surface embedding becomes one extra depth slice).
class PatchEmbed4d : public nn::Module {
 public:
  PatchEmbed4d(int64_t embed_dim, int64_t patch_h, int64_t patch_w,
               int64_t patch_d, util::Rng& rng);

  /// volume [B, 3, H, W, D, Tn], surface [B, 1, H, W, Tn]
  /// -> [B, H/ph, W/pw, D/pd + 1, Tn, C].
  Tensor forward(const Tensor& volume, const Tensor& surface) const;

  int64_t embed_dim() const { return dim_; }

 private:
  int64_t dim_, ph_, pw_, pd_;
  std::shared_ptr<nn::PatchConvNd> embed3d_;
  std::shared_ptr<nn::PatchConvNd> embed2d_;
};

/// Absolute positional encoding: separate learnable spatial
/// [C, H', W', D'] and temporal [C, T] embeddings added by broadcasting.
class PositionalEmbedding4d : public nn::Module {
 public:
  PositionalEmbedding4d(int64_t dim, int64_t H, int64_t W, int64_t D,
                        int64_t T, util::Rng& rng);

  /// x: [B, H, W, D, T, C].
  Tensor forward(const Tensor& x) const;

 private:
  Tensor spatial_;   ///< [1, C, H, W, D, 1]
  Tensor temporal_;  ///< [1, C, 1, 1, 1, T]
};

/// Patch merging (Fig. 4): 2x2x2 spatial neighbours concatenated along
/// channels (8C) then projected to 2C.  Equivalent to a kernel==stride
/// convolution, which is how it is implemented.
class PatchMerging4d : public nn::Module {
 public:
  PatchMerging4d(int64_t dim, util::Rng& rng);

  /// [B, H, W, D, T, C] -> [B, H/2, W/2, D/2, T, 2C].
  Tensor forward(const Tensor& x) const;

 private:
  std::shared_ptr<nn::PatchConvNd> merge_;
};

}  // namespace coastal::core
