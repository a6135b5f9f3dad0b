/// Tests for the NN library: layer shapes, gradient checks through
/// modules, optimizer behaviour, checkpointing equivalence, serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

#include "nn/attention.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "test_helpers.hpp"

namespace ct = coastal::tensor;
namespace nn = coastal::nn;
using coastal::tensor::Tensor;
using coastal::testing::expect_tensor_near;
using coastal::testing::gradcheck;
using coastal::testing::at;
using coastal::testing::bn_forward;
using coastal::testing::set;
using coastal::util::Rng;

TEST(Linear, ShapeAndBias) {
  Rng rng(1);
  nn::Linear lin(4, 3, rng);
  Tensor x = Tensor::randn({2, 5, 4}, rng);
  Tensor y = lin.forward(x);
  EXPECT_EQ(y.shape(), (ct::Shape{2, 5, 3}));
  EXPECT_EQ(lin.num_parameters(), 4 * 3 + 3);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(2);
  nn::Linear lin(4, 3, rng, /*bias=*/false);
  EXPECT_EQ(lin.num_parameters(), 12);
}

TEST(Linear, GradientThroughWeights) {
  Rng rng(3);
  nn::Linear lin(3, 2, rng);
  Tensor x = Tensor::randn({4, 3}, rng);
  gradcheck([&](const Tensor& w_sub) {
    // Substitute candidate weights through an equivalent expression.
    return x.matmul(w_sub).add(lin.bias).sum();
  }, lin.weight.detach());
  // And the module's own backward populates both param grads.
  lin.zero_grad();
  lin.forward(x).sum().backward();
  EXPECT_TRUE(lin.weight.grad().defined());
  EXPECT_TRUE(lin.bias.grad().defined());
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(4);
  nn::Linear lin(4, 2, rng);
  EXPECT_THROW(lin.forward(Tensor::zeros({2, 5})), coastal::util::CheckError);
}

TEST(LayerNormModule, NormalizesLastDim) {
  Rng rng(5);
  nn::LayerNorm ln(6);
  Tensor x = Tensor::randn({3, 6}, rng, 4.0f);
  Tensor y = ln.forward(x);
  for (int r = 0; r < 3; ++r) {
    double mean = 0, var = 0;
    for (int c = 0; c < 6; ++c) mean += at(y, {r, c});
    mean /= 6;
    for (int c = 0; c < 6; ++c) var += (at(y, {r, c}) - mean) * (at(y, {r, c}) - mean);
    var /= 6;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

namespace {

/// The upsampled field [B, F, d1*k1 .. dk*kk, Cout] of a transposed conv:
/// its projection laid out through the fine view.
Tensor upsample(const nn::PatchConvTransposeNd& up, const Tensor& x,
                const ct::View& field) {
  nn::PatchConvTransposeNd::Projection p = up.project(x, field);
  ct::Shape fine{field.shape[0], field.shape[1]};
  for (size_t i = 0; i < up.kernel().size(); ++i)
    fine.push_back(field.shape[2 + i] * up.kernel()[i]);
  fine.push_back(up.out_channels());
  return ct::gather(p.y, p.fine, std::move(fine));
}

}  // namespace

TEST(BatchNormModule, TrainEvalStatistics) {
  Rng rng(6);
  nn::BatchNorm bn(3);
  Tensor x = Tensor::randn({4, 5, 3}, rng, 2.0f).add_scalar(1.0f);
  bn.set_training(true);
  Tensor y = bn_forward(bn, x);
  EXPECT_EQ(y.shape(), x.shape());
  // Per-channel output stats should be ~N(0,1) in train mode.
  for (int c = 0; c < 3; ++c) {
    double mean = 0;
    int n = 0;
    for (int b = 0; b < 4; ++b)
      for (int s = 0; s < 5; ++s) {
        mean += at(y, {b, s, c});
        ++n;
      }
    EXPECT_NEAR(mean / n, 0.0, 1e-4);
  }
  // Running stats moved toward the batch stats.
  EXPECT_NE(bn.running_mean.data()[0], 0.0f);
  // Eval mode uses running stats and is deterministic.
  bn.set_training(false);
  Tensor y1 = bn_forward(bn, x);
  Tensor y2 = bn_forward(bn, x);
  expect_tensor_near(y1, y2, 0.0);
}

TEST(BatchNormModule, GradientFlows) {
  Rng rng(7);
  nn::BatchNorm bn(2);
  Tensor x = Tensor::randn({3, 4, 2}, rng);
  x.set_requires_grad(true);
  bn_forward(bn, x).sum().backward();
  EXPECT_TRUE(x.grad().defined());
  EXPECT_TRUE(bn.gamma.grad().defined());
}

TEST(BatchNormModule, FusedEvalMatchesComposedOpsBitwise) {
  // The eval kernel (no graph) and the differentiable op chain (graph
  // recorded) must agree bit for bit: batch statistics, running
  // statistics, grouped statistics, and rows read in an order other than
  // the layout's — [B, H, W, T, C] reduced over (b, t, h, w) — and
  // written out in a third one, (b, w, h, t).
  Rng rng(8);
  Tensor x = Tensor::randn({2, 3, 5, 4, 6}, rng, 3.0f).add_scalar(0.5f);
  const ct::View rows{{2, 4, 3, 5, 6}, {360, 6, 120, 24, 1}, 0};
  const std::vector<size_t> order{0, 3, 2, 1};
  for (const bool batch_stats : {true, false}) {
    for (const int64_t groups : {1, 2}) {
      nn::BatchNorm bn(6, 1e-5f, 0.1f, batch_stats);
      bn.set_training(true);
      {
        ct::NoGradGuard ng;
        bn_forward(bn, x);  // move the running stats off their defaults
      }
      bn.set_training(false);
      nn::BatchStatScope scope(groups);
      Tensor fused, composed;
      {
        ct::NoGradGuard ng;
        fused = bn.forward(x, rows, order, {2, 5, 3, 4, 6});
      }
      composed = bn.forward(x, rows, order, {2, 5, 3, 4, 6});
      ASSERT_TRUE(composed.has_grad_fn());
      ASSERT_EQ(fused.shape(), composed.shape());
      for (int64_t i = 0; i < fused.numel(); ++i)
        ASSERT_EQ(fused.raw()[i], composed.raw()[i])
            << "batch_stats " << batch_stats << " groups " << groups
            << " idx " << i;
    }
  }
}

TEST(BatchNormModule, RowViewOnlyReordersTheSumsAndTheLayout) {
  // Normalizing [B, H, T, C] with rows read in (b, t, h) order and written
  // back in (b, h, t) equals normalizing the [B, T, H, C] permute in its
  // own order, permuted back.
  Rng rng(9);
  nn::BatchNorm bn(4, 1e-5f, 0.1f, /*use_batch_stats_in_eval=*/true);
  bn.set_training(false);
  ct::NoGradGuard ng;
  Tensor x = Tensor::randn({2, 5, 3, 4}, rng);
  Tensor direct = bn.forward(x, {{2, 3, 5, 4}, {60, 4, 12, 1}, 0}, {0, 2, 1},
                             x.shape());
  Tensor via = bn_forward(bn, x.permute({0, 2, 1, 3})).permute({0, 2, 1, 3});
  expect_tensor_near(direct, via, 0.0);
}

TEST(Mlp, GeluSandwichShape) {
  Rng rng(8);
  nn::Mlp mlp(6, 12, rng);
  Tensor x = Tensor::randn({2, 3, 6}, rng);
  EXPECT_EQ(mlp.forward(x).shape(), x.shape());
  EXPECT_EQ(mlp.num_parameters(), 6 * 12 + 12 + 12 * 6 + 6);
}

TEST(Attention, OutputShapeAndParamCount) {
  Rng rng(9);
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::randn({3, 5, 8}, rng);
  EXPECT_EQ(attn.forward(x).shape(), x.shape());
  EXPECT_EQ(attn.num_parameters(), 8 * 24 + 24 + 8 * 8 + 8);
}

TEST(Attention, RejectsIndivisibleHeads) {
  Rng rng(10);
  EXPECT_THROW(nn::MultiHeadSelfAttention(8, 3, rng),
               coastal::util::CheckError);
}

TEST(Attention, MaskBlocksCrossGroupAttention) {
  Rng rng(11);
  nn::MultiHeadSelfAttention attn(4, 1, rng);
  // Two windows; the mask forbids token 0 <-> token 1 in window 1 only.
  Tensor x = Tensor::randn({2, 2, 4}, rng);
  std::vector<float> m(2 * 2 * 2, 0.0f);
  m[4 + 1] = -1e9f;  // window 1: (0,1)
  m[4 + 2] = -1e9f;  // window 1: (1,0)
  Tensor mask = Tensor::from_vector({2, 2, 2}, m);
  Tensor masked = attn.forward(x, mask);
  Tensor open = attn.forward(x);
  // Window 0 unchanged by the mask; window 1 differs.
  const double d0 = coastal::testing::max_abs_diff(masked.slice(0, 0, 1),
                                                  open.slice(0, 0, 1));
  const double d1 = coastal::testing::max_abs_diff(masked.slice(0, 1, 1),
                                                  open.slice(0, 1, 1));
  EXPECT_LT(d0, 1e-6);
  EXPECT_GT(d1, 1e-6);
}

TEST(Attention, GradientReachesAllParams) {
  Rng rng(12);
  nn::MultiHeadSelfAttention attn(6, 3, rng);
  Tensor x = Tensor::randn({2, 4, 6}, rng);
  attn.forward(x).sum().backward();
  for (auto& [name, p] : attn.named_parameters()) {
    EXPECT_TRUE(p.grad().defined()) << name;
  }
}

TEST(PatchConv, EqualsManualBlockProjection) {
  Rng rng(13);
  nn::PatchConvNd conv(2, 3, {2, 2}, rng);
  // Channels-last [B, H, W, F, C] with two frames.
  Tensor x = Tensor::randn({1, 4, 4, 2, 2}, rng);
  Tensor y = conv.forward(x, nn::field_view(x.shape(), 3, 4));
  ASSERT_EQ(y.shape(), (ct::Shape{1, 2, 2, 2, 3}));
  // Every output is the bias plus the block's (channel, kh, kw) values
  // dotted with the projection's rows in that order.
  const auto params = conv.named_parameters();
  const Tensor& w = params[0].second;  // [2 * 2 * 2, 3]
  const Tensor& b = params[1].second;
  for (int64_t f = 0; f < 2; ++f)
    for (int64_t i = 0; i < 2; ++i)
      for (int64_t j = 0; j < 2; ++j)
        for (int64_t o = 0; o < 3; ++o) {
          double acc = at(b, {o});
          for (int64_t c = 0; c < 2; ++c)
            for (int64_t ki = 0; ki < 2; ++ki)
              for (int64_t kj = 0; kj < 2; ++kj)
                acc += static_cast<double>(
                           at(x, {0, 2 * i + ki, 2 * j + kj, f, c})) *
                       at(w, {c * 4 + ki * 2 + kj, o});
          EXPECT_NEAR(at(y, {0, f, i, j, o}), acc, 1e-5);
        }
}

TEST(PatchConv, ReadsAnyLayoutThroughTheView) {
  // A channel-first [B, C, H, W, F] input read through its view equals
  // the same field made channels-last first, bitwise.
  Rng rng(14);
  nn::PatchConvNd conv(3, 4, {2, 3}, rng);
  Tensor cf = Tensor::randn({2, 3, 4, 6, 2}, rng);
  Tensor cl = cf.permute({0, 2, 3, 4, 1});  // [B, H, W, F, C]
  expect_tensor_near(conv.forward(cf, nn::field_view(cf.shape(), 4, 1)),
                     conv.forward(cl, nn::field_view(cl.shape(), 3, 4)),
                     0.0);
}

TEST(PatchConvTranspose, UpsamplesShape) {
  Rng rng(15);
  nn::PatchConvTransposeNd up(4, 2, {2, 2, 2}, rng);
  Tensor x = Tensor::randn({1, 2, 3, 2, 1, 4}, rng);  // [B, H, W, D, F, C]
  EXPECT_EQ(upsample(up, x, nn::field_view(x.shape(), 4, 5)).shape(),
            (ct::Shape{1, 1, 4, 6, 4, 2}));
}

TEST(PatchConvTranspose, EqualsManualBlockScatter) {
  // Fine cell (ki + 2i, kj + 2j) of frame f holds the coarse cell's
  // projection onto output column (o, ki, kj), with and without a graph
  // (the weight's column order, or its offset-major permutation).
  Rng rng(16);
  nn::PatchConvTransposeNd up(3, 2, {2, 2}, rng);
  Tensor x = Tensor::randn({1, 2, 3, 2, 3}, rng);  // [B, H, W, F, C]
  const ct::View v = nn::field_view(x.shape(), 3, 4);
  Tensor first = upsample(up, x, v);  // [1, 2, 4, 6, 2]
  {
    ct::NoGradGuard ng;
    expect_tensor_near(upsample(up, x, v), first, 0.0);
  }
  const auto params = up.named_parameters();
  const Tensor& w = params[0].second;  // [3, 2 * 2 * 2]
  const Tensor& b = params[1].second;
  for (int64_t f = 0; f < 2; ++f)
    for (int64_t i = 0; i < 2; ++i)
      for (int64_t j = 0; j < 3; ++j)
        for (int64_t o = 0; o < 2; ++o)
          for (int64_t ki = 0; ki < 2; ++ki)
            for (int64_t kj = 0; kj < 2; ++kj) {
              const int64_t col = o * 4 + ki * 2 + kj;
              double acc = at(b, {col});
              for (int64_t c = 0; c < 3; ++c)
                acc += static_cast<double>(at(x, {0, i, j, f, c})) *
                       at(w, {c, col});
              EXPECT_NEAR(at(first, {0, f, 2 * i + ki, 2 * j + kj, o}), acc,
                          1e-5);
            }
}

TEST(PatchConvTranspose, InverseOfPatchConvStructure) {
  // conv then transpose restores the spatial dims (not values).
  Rng rng(17);
  nn::PatchConvNd down(1, 4, {2, 2}, rng);
  nn::PatchConvTransposeNd up(4, 1, {2, 2}, rng);
  Tensor x = Tensor::randn({2, 6, 4, 1, 1}, rng);  // [B, H, W, F, C]
  Tensor y = down.forward(x, nn::field_view(x.shape(), 3, 4));
  // [B, F, H, W, C] back to x's [B, H, W, F, C] (F = 1).
  EXPECT_EQ(upsample(up, y, nn::field_view(y.shape(), 1, 4)).shape(),
            (ct::Shape{2, 1, 6, 4, 1}));
}

TEST(PointwiseConv, MixesChannelsOnly) {
  Rng rng(18);
  nn::PointwiseConvNd pw(3, 5, rng);
  Tensor x = Tensor::randn({2, 4, 2, 3, 3}, rng);
  Tensor y = pw.forward(x);
  EXPECT_EQ(y.shape(), (ct::Shape{2, 4, 2, 3, 5}));
  // Each location depends on its own channels only.
  Tensor x2 = x.detach();
  set(x2, {1, 3, 1, 2, 0}, 42.0f);
  Tensor y2 = pw.forward(x2);
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (i / 5 == y.numel() / 5 - 1) continue;  // the changed location
    ASSERT_EQ(y.raw()[i], y2.raw()[i]) << i;
  }
}

TEST(Optimizer, AdamFirstStepIsLrSized) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Tensor w = Tensor::from_vector({2}, {1.0f, -1.0f});
  w.set_requires_grad(true);
  nn::Adam opt({w}, 0.01f);
  opt.zero_grad();
  w.mul_scalar(3.0f).sum().backward();  // grad = +3 on both
  opt.step();
  EXPECT_NEAR(w.data()[0], 1.0f - 0.01f, 1e-4);
  EXPECT_NEAR(w.data()[1], -1.0f - 0.01f, 1e-4);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Tensor w = Tensor::from_vector({3}, {2.0f, -4.0f, 1.0f});
  w.set_requires_grad(true);
  nn::Adam opt({w}, 0.05f);
  for (int i = 0; i < 400; ++i) {
    opt.zero_grad();
    w.mul(w).sum().backward();
    opt.step();
  }
  for (float x : w.data()) EXPECT_NEAR(x, 0.0f, 5e-3);
}

TEST(Optimizer, ClipGradNormScales) {
  Tensor w = Tensor::from_vector({2}, {1.0f, 1.0f});
  w.set_requires_grad(true);
  w.mul_scalar(30.0f).sum().backward();  // grad = (30, 30), norm ~ 42.4
  const float pre = nn::clip_grad_norm({w}, 1.0f);
  EXPECT_NEAR(pre, 42.426f, 1e-2);
  double post = 0;
  for (float g : w.grad().data()) post += g * g;
  EXPECT_NEAR(std::sqrt(post), 1.0, 1e-4);
}

namespace {

/// y = fn(x), run directly or inside nn::checkpoint, then backward from
/// sum(y ∘ y): returns y, x's gradient and every parameter gradient of
/// `m`, flattened in that order.
std::vector<float> forward_and_grads(
    const std::function<Tensor(const Tensor&)>& fn, nn::Module& m,
    const Tensor& x, bool ckpt) {
  m.zero_grad();
  Tensor xl = x.detach();
  xl.set_requires_grad(true);
  Tensor y = ckpt ? nn::checkpoint(
                        [&](const std::vector<Tensor>& in) {
                          return fn(in[0]);
                        },
                        {xl}, m.parameters())
                  : fn(xl);
  y.mul(y).sum().backward();
  std::vector<float> flat(y.data().begin(), y.data().end());
  flat.insert(flat.end(), xl.grad().data().begin(), xl.grad().data().end());
  for (auto& [name, p] : m.named_parameters()) {
    EXPECT_TRUE(p.grad().defined()) << name;
    if (p.grad().defined())
      flat.insert(flat.end(), p.grad().data().begin(), p.grad().data().end());
  }
  return flat;
}

void expect_checkpoint_bitwise(const std::function<Tensor(const Tensor&)>& fn,
                               nn::Module& m, const Tensor& x) {
  const std::vector<float> direct = forward_and_grads(fn, m, x, false);
  const std::vector<float> ckpt = forward_and_grads(fn, m, x, true);
  ASSERT_EQ(direct.size(), ckpt.size());
  EXPECT_EQ(std::memcmp(direct.data(), ckpt.data(),
                        direct.size() * sizeof(float)),
            0);
}

}  // namespace

TEST(Checkpoint, MatchesUncheckpointedForwardAndGrads) {
  // The region's saved output (a no-grad pass) and its backward-time
  // recompute run the same kernels as the direct training forward, so
  // the output and every gradient agree bitwise.
  Rng rng(18);
  nn::Mlp mlp(4, 8, rng);
  expect_checkpoint_bitwise([&](const Tensor& t) { return mlp.forward(t); },
                            mlp, Tensor::randn({3, 4}, rng));

  // Windowed attention under a shifted-window mask: two mask groups, the
  // window index fastest in B, group 1 split into halves with -1e9.
  const int64_t groups = 2, N = 16;
  nn::MultiHeadSelfAttention attn(16, 2, rng);
  std::vector<float> m(static_cast<size_t>(groups * N * N), 0.0f);
  for (int64_t i = 0; i < N; ++i)
    for (int64_t j = 0; j < N; ++j)
      if ((i < N / 2) != (j < N / 2))
        m[static_cast<size_t>((N + i) * N + j)] = -1e9f;
  Tensor mask = Tensor::from_vector({groups, N, N}, std::move(m));
  expect_checkpoint_bitwise(
      [&](const Tensor& t) { return attn.forward(t, mask); }, attn,
      Tensor::randn({2 * groups, N, 16}, rng));
}

TEST(Checkpoint, WorksWhenInputsDoNotRequireGrad) {
  // Regression test: weights must still receive gradients when the region
  // input is a plain data tensor.
  Rng rng(19);
  nn::Mlp mlp(4, 8, rng);
  Tensor x = Tensor::randn({2, 4}, rng);  // no requires_grad
  Tensor y = nn::checkpoint(
      [&](const std::vector<Tensor>& in) { return mlp.forward(in[0]); },
      {x}, mlp.parameters());
  y.sum().backward();
  for (auto& [name, p] : mlp.named_parameters())
    EXPECT_TRUE(p.grad().defined()) << name;
}

TEST(Checkpoint, NoGraphRecordedInsideRegion) {
  // The region's interior must not hold activations: result of the
  // checkpointed call has a grad_fn, but running under NoGrad returns a
  // plain tensor.
  Rng rng(20);
  nn::Mlp mlp(4, 4, rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  ct::NoGradGuard ngg;
  Tensor y = nn::checkpoint(
      [&](const std::vector<Tensor>& in) { return mlp.forward(in[0]); },
      {x}, mlp.parameters());
  EXPECT_FALSE(y.has_grad_fn());
}

TEST(Serialize, RoundTripsParametersAndBuffers) {
  Rng rng(21);
  nn::BatchNorm bn1(3), bn2(3);
  // Mutate bn1's state.
  Tensor x = Tensor::randn({4, 2, 3}, rng, 2.0f);
  bn_forward(bn1, x);
  bn1.gamma.raw()[0] = 7.5f;

  const std::string path =
      (std::filesystem::temp_directory_path() / "bn_params.bin").string();
  nn::save_parameters(bn1, path);
  nn::load_parameters(bn2, path);
  expect_tensor_near(bn2.gamma, bn1.gamma, 0.0);
  expect_tensor_near(bn2.running_mean, bn1.running_mean, 0.0);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsShapeMismatch) {
  Rng rng(22);
  nn::Linear a(4, 3, rng), b(4, 2, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "lin_params.bin").string();
  nn::save_parameters(a, path);
  EXPECT_THROW(nn::load_parameters(b, path), coastal::util::CheckError);
  std::remove(path.c_str());
}

TEST(Serialize, CorruptOrTruncatedHeadersThrowCheckError) {
  Rng rng(24);
  nn::Linear saved(3, 2, rng), target(3, 2, rng);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string good = (dir / "serialize_headers_good.bin").string();
  const std::string bad = (dir / "serialize_headers_bad.bin").string();
  nn::save_parameters(saved, good);
  std::vector<char> bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto write_bad = [&](const std::vector<char>& b, size_t len) {
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(len));
  };
  ASSERT_NO_THROW(nn::load_parameters(target, good));

  // Layout: magic u32, count u64, then per entry name_len u64, name,
  // ndim u64, dims i64[ndim], data.  Flipping the top byte of the first
  // name_len (or ndim) asks for an absurd size, which must be refused
  // before anything is allocated for it.
  const size_t name_len_at = 4 + 8;
  uint64_t name_len = 0;
  std::memcpy(&name_len, bytes.data() + name_len_at, sizeof(name_len));
  const size_t ndim_at = name_len_at + 8 + name_len;
  for (size_t field : {name_len_at, ndim_at}) {
    std::vector<char> flipped = bytes;
    flipped[field + 7] = static_cast<char>(flipped[field + 7] ^ 0xFF);
    write_bad(flipped, flipped.size());
    EXPECT_THROW(nn::load_parameters(target, bad), coastal::util::CheckError)
        << "top byte flipped in the u64 at offset " << field;
  }

  // Cut at every offset, which covers every header field boundary and
  // every byte inside one: always a CheckError, never a short read that
  // is silently accepted.
  for (size_t len = 0; len < bytes.size(); ++len) {
    write_bad(bytes, len);
    EXPECT_THROW(nn::load_parameters(target, bad), coastal::util::CheckError)
        << "file truncated to " << len << " of " << bytes.size() << " bytes";
  }
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(Module, NamedParametersUseDottedPaths) {
  Rng rng(23);
  nn::Mlp mlp(3, 6, rng);
  std::vector<std::string> names;
  for (auto& [n, t] : mlp.named_parameters()) names.push_back(n);
  EXPECT_NE(std::find(names.begin(), names.end(), "fc1.weight"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "fc2.bias"), names.end());
}
