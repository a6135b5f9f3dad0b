#include "core/patch_ops.hpp"

namespace coastal::core {

tensor::View feature_view(const Tensor& x) {
  COASTAL_CHECK_MSG(x.ndim() == 6, "expected [B,H,W,D,T,C], got "
                                       << tensor::shape_str(x.shape()));
  return nn::field_view(x.shape(), /*frame_axis=*/4, /*channel_axis=*/5);
}

PatchEmbed4d::PatchEmbed4d(int64_t embed_dim, int64_t patch_h, int64_t patch_w,
                           int64_t patch_d, util::Rng& rng)
    : dim_(embed_dim), ph_(patch_h), pw_(patch_w), pd_(patch_d) {
  embed3d_ = register_module<nn::PatchConvNd>(
      "embed3d", 3, embed_dim,
      std::vector<int64_t>{patch_h, patch_w, patch_d}, rng);
  embed2d_ = register_module<nn::PatchConvNd>(
      "embed2d", 1, embed_dim, std::vector<int64_t>{patch_h, patch_w}, rng);
}

Tensor PatchEmbed4d::forward(const Tensor& volume,
                             const Tensor& surface) const {
  COASTAL_CHECK(volume.ndim() == 6 && surface.ndim() == 5);
  const int64_t Tn = volume.shape()[5];
  COASTAL_CHECK(surface.shape()[4] == Tn);

  // Both branches gather their channel-first input straight into GEMM
  // rows (b, t, patch): [B, Tn, H', W', D', C] and [B, Tn, H', W', C].
  Tensor vol = embed3d_->forward(
      volume, nn::field_view(volume.shape(), /*frame_axis=*/5,
                                /*channel_axis=*/1));
  Tensor surf = embed2d_->forward(
      surface, nn::field_view(surface.shape(), /*frame_axis=*/4,
                                 /*channel_axis=*/1));
  tensor::Shape s = surf.shape();
  // The surface rides on top of the water column as one more depth slice.
  Tensor both =
      tensor::concat({vol, std::move(surf).reshape({s[0], s[1], s[2], s[3], 1,
                                                    s[4]})},
                     4);
  return both.permute({0, 2, 3, 4, 1, 5});
}

PositionalEmbedding4d::PositionalEmbedding4d(int64_t dim, int64_t H, int64_t W,
                                             int64_t D, int64_t T,
                                             util::Rng& rng) {
  spatial_ = register_parameter(
      "spatial", Tensor::randn({1, dim, H, W, D, 1}, rng, 0.02f));
  temporal_ = register_parameter(
      "temporal", Tensor::randn({1, dim, 1, 1, 1, T}, rng, 0.02f));
}

Tensor PositionalEmbedding4d::forward(const Tensor& x) const {
  // The parameters keep their [1, C, ...] layout (and so their bytes);
  // moving them channels-last costs a few hundred floats per forward.
  const std::vector<size_t> to_last{0, 2, 3, 4, 5, 1};
  return x.add(spatial_.permute(to_last)).add(temporal_.permute(to_last));
}

PatchMerging4d::PatchMerging4d(int64_t dim, util::Rng& rng) {
  merge_ = register_module<nn::PatchConvNd>(
      "merge", dim, 2 * dim, std::vector<int64_t>{2, 2, 2}, rng);
}

Tensor PatchMerging4d::forward(const Tensor& x) const {
  return merge_->forward(x, feature_view(x)).permute({0, 2, 3, 4, 1, 5});
}

}  // namespace coastal::core
