#include "core/surrogate.hpp"

#include "util/check.hpp"

namespace coastal::core {

namespace {

/// Largest window <= `base` that divides `dim` (window attention needs
/// exact tiling; deeper stages have small grids, so windows shrink).
int64_t fit_window(int64_t base, int64_t dim) {
  int64_t w = std::min(base, dim);
  while (w > 1 && dim % w != 0) --w;
  return std::max<int64_t>(1, w);
}

Window4d effective_window(const Window4d& base, int64_t h, int64_t w,
                          int64_t d, int64_t t) {
  return {fit_window(base[0], h), fit_window(base[1], w),
          fit_window(base[2], d), fit_window(base[3], t)};
}

/// Transposed conv -> BatchNorm -> GELU, the decoder's upsampling unit.
/// The normalization reads the projection's fine rows where the GEMM
/// left them, in (b, t, h, w, d) order, and writes them out with the row
/// axes in `order` (the field labelled `shape`): the upsampled field is
/// laid out once, by the normalization's own pass.
Tensor upsample(const nn::PatchConvTransposeNd& up, nn::BatchNorm& bn,
                const Tensor& x, const tensor::View& field,
                const std::vector<size_t>& order, tensor::Shape shape) {
  nn::PatchConvTransposeNd::Projection p = up.project(x, field);
  return bn.forward(p.y, p.fine, order, std::move(shape)).gelu();
}

}  // namespace

void SurrogateConfig::validate() const {
  COASTAL_CHECK_MSG(H > 0 && W > 0 && D > 0 && T > 0, "dims not set");
  COASTAL_CHECK_MSG(H % patch_h == 0 && W % patch_w == 0 && D % patch_d == 0,
                    "patch (" << patch_h << "," << patch_w << "," << patch_d
                              << ") must divide mesh (" << H << "," << W
                              << "," << D << ")");
  COASTAL_CHECK_MSG(static_cast<int>(heads.size()) == stages,
                    "need one head count per stage");
  const int64_t down = 1LL << (stages - 1);
  COASTAL_CHECK_MSG(h1() % down == 0 && w1() % down == 0 && d1() % down == 0,
                    "embedded grid (" << h1() << "," << w1() << "," << d1()
                                      << ") not divisible by 2^(stages-1)="
                                      << down);
  for (int i = 0; i < stages; ++i) {
    COASTAL_CHECK_MSG(embed_dim * (1LL << i) % heads[static_cast<size_t>(i)] == 0,
                      "stage " << i << " dim not divisible by heads");
  }
}

SurrogateModel::SurrogateModel(const SurrogateConfig& config, util::Rng& rng)
    : cfg_(config) {
  cfg_.validate();
  embed_ = register_module<PatchEmbed4d>("embed", cfg_.embed_dim, cfg_.patch_h,
                                         cfg_.patch_w, cfg_.patch_d, rng);
  pos_ = register_module<PositionalEmbedding4d>(
      "pos", cfg_.embed_dim, cfg_.h1(), cfg_.w1(), cfg_.d1(), cfg_.tn(), rng);

  int64_t h = cfg_.h1(), w = cfg_.w1(), d = cfg_.d1();
  for (int i = 0; i < cfg_.stages; ++i) {
    const int64_t dim = cfg_.embed_dim * (1LL << i);
    const Window4d base = (i == 0) ? cfg_.window_first : cfg_.window_rest;
    const Window4d win = effective_window(base, h, w, d, cfg_.tn());
    stages_.push_back(register_module<SwinBlockPair4d>(
        "stage" + std::to_string(i), dim, cfg_.heads[static_cast<size_t>(i)],
        Grid4d{h, w, d, cfg_.tn()}, win, rng));
    if (i + 1 < cfg_.stages) {
      merges_.push_back(register_module<PatchMerging4d>(
          "merge" + std::to_string(i), dim, rng));
      h /= 2;
      w /= 2;
      d /= 2;
    }
  }

  // Decoder mirror: stages-1 upsampling steps.
  for (int i = cfg_.stages - 2; i >= 0; --i) {
    const int64_t dim_in = cfg_.embed_dim * (1LL << (i + 1));
    const int64_t dim_out = cfg_.embed_dim * (1LL << i);
    UpStage up;
    up.up = register_module<nn::PatchConvTransposeNd>(
        "up" + std::to_string(i), dim_in, dim_out,
        std::vector<int64_t>{2, 2, 2}, rng);
    up.bn = register_module<nn::BatchNorm>("up_bn" + std::to_string(i),
                                           dim_out, 1e-5f, 0.1f,
                                           /*use_batch_stats_in_eval=*/true);
    up.fuse = register_module<nn::PointwiseConvNd>(
        "up_fuse" + std::to_string(i), 2 * dim_out, dim_out, rng);
    ups_.push_back(std::move(up));
  }

  // Patch-recovery heads (transposed conv + BN + GELU + 1x1 conv).
  recover3d_ = register_module<nn::PatchConvTransposeNd>(
      "recover3d", cfg_.embed_dim, cfg_.embed_dim,
      std::vector<int64_t>{cfg_.patch_h, cfg_.patch_w, cfg_.patch_d}, rng);
  bn3d_ = register_module<nn::BatchNorm>("bn3d", cfg_.embed_dim, 1e-5f,
                                         0.1f, true);
  head3d_ = register_module<nn::PointwiseConvNd>("head3d", cfg_.embed_dim, 3,
                                                 rng);
  recover2d_ = register_module<nn::PatchConvTransposeNd>(
      "recover2d", cfg_.embed_dim, cfg_.embed_dim,
      std::vector<int64_t>{cfg_.patch_h, cfg_.patch_w}, rng);
  bn2d_ = register_module<nn::BatchNorm>("bn2d", cfg_.embed_dim, 1e-5f,
                                         0.1f, true);
  head2d_ = register_module<nn::PointwiseConvNd>("head2d", cfg_.embed_dim, 1,
                                                 rng);
}

SurrogateOutput SurrogateModel::forward(const Tensor& volume,
                                        const Tensor& surface,
                                        bool use_checkpoint) {
  COASTAL_CHECK_MSG(volume.ndim() == 6 && surface.ndim() == 5,
                    "expected batched volume [B,3,H,W,D,T+1] and surface "
                    "[B,1,H,W,T+1]");
  COASTAL_CHECK_MSG(volume.shape()[5] == cfg_.tn(),
                    "input time steps " << volume.shape()[5] << " != T+1 = "
                                        << cfg_.tn());
  // Activations stay channels-last, [B, h, w, d, Tn, C], from the patch
  // embedding to the recovery heads.
  // ---- encoder ----------------------------------------------------------
  Tensor x = pos_->forward(embed_->forward(volume, surface));
  std::vector<Tensor> skips;
  for (int i = 0; i < cfg_.stages; ++i) {
    x = stages_[static_cast<size_t>(i)]->forward(x, use_checkpoint);
    if (i + 1 < cfg_.stages) {
      skips.push_back(x);
      x = merges_[static_cast<size_t>(i)]->forward(x);
    }
  }

  // ---- decoder ----------------------------------------------------------
  const int64_t B = volume.shape()[0], Tn = cfg_.tn();
  for (size_t u = 0; u < ups_.size(); ++u) {
    const auto& up = ups_[u];
    const tensor::Shape& s = x.shape();  // [B, h, w, d, Tn, C]
    Tensor activated = upsample(
        *up.up, *up.bn, x, feature_view(x), {0, 2, 3, 4, 5, 6, 7, 1},
        {B, 2 * s[1], 2 * s[2], 2 * s[3], Tn, up.up->out_channels()});
    // U-Net skip: concat on channels with the matching encoder level.
    const Tensor& skip = skips[skips.size() - 1 - u];
    x = up.fuse->forward(tensor::concat({activated, skip}, 5));
  }

  // ---- split depth and recover ------------------------------------------
  // The heads read the volume slices d < dv and the surface slice d = dv
  // in place and work time-major, [B, Tn, H, W, (D,) C].
  const int64_t dv = cfg_.D / cfg_.patch_d;  // volume depth slices
  const tensor::View view = feature_view(x);  // [B, Tn, h1, w1, d1, C]
  tensor::View vol_view = view;
  vol_view.shape[4] = dv;
  tensor::View surf_view = view;
  surf_view.offset = dv * view.strides[4];
  surf_view.shape.erase(surf_view.shape.begin() + 4);
  surf_view.strides.erase(surf_view.strides.begin() + 4);

  const int64_t H = cfg_.H, W = cfg_.W, D = cfg_.D, C = cfg_.embed_dim;
  Tensor vol_rec = head3d_->forward(upsample(*recover3d_, *bn3d_, x, vol_view,
                                             {0, 1, 2, 3, 4, 5, 6, 7},
                                             {B, Tn, H, W, D, C}));
  Tensor surf_rec = head2d_->forward(upsample(
      *recover2d_, *bn2d_, x, surf_view, {0, 1, 2, 3, 4, 5}, {B, Tn, H, W, C}));

  // Predictions are the T forecast frames (drop the initial-condition
  // frame), gathered back to the channel-first output layout.
  SurrogateOutput out;
  out.volume = tensor::gather(
      vol_rec, {{B, 3, H, W, D, cfg_.T},
                {Tn * H * W * D * 3, 1, W * D * 3, D * 3, 3, H * W * D * 3},
                H * W * D * 3});
  out.surface = tensor::gather(
      surf_rec, {{B, 1, H, W, cfg_.T}, {Tn * H * W, 1, W, 1, H * W}, H * W});
  return out;
}

SurrogateOutput SurrogateModel::forward_sample(const data::Sample& sample,
                                               bool use_checkpoint) {
  tensor::Shape vs = sample.volume.shape();
  tensor::Shape ss = sample.surface.shape();
  tensor::Shape bvs{1};
  bvs.insert(bvs.end(), vs.begin(), vs.end());
  tensor::Shape bss{1};
  bss.insert(bss.end(), ss.begin(), ss.end());
  return forward(sample.volume.reshape(bvs), sample.surface.reshape(bss),
                 use_checkpoint);
}

}  // namespace coastal::core
