/// Tests for the NN library: layer shapes, gradient checks through
/// modules, optimizer behaviour, checkpointing equivalence, serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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
    for (int c = 0; c < 6; ++c) mean += y.at({r, c});
    mean /= 6;
    for (int c = 0; c < 6; ++c) var += (y.at({r, c}) - mean) * (y.at({r, c}) - mean);
    var /= 6;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNormModule, TrainEvalStatistics) {
  Rng rng(6);
  nn::BatchNorm bn(3);
  Tensor x = Tensor::randn({4, 3, 5}, rng, 2.0f).add_scalar(1.0f);
  bn.set_training(true);
  Tensor y = bn.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  // Per-channel output stats should be ~N(0,1) in train mode.
  for (int c = 0; c < 3; ++c) {
    double mean = 0;
    int n = 0;
    for (int b = 0; b < 4; ++b)
      for (int s = 0; s < 5; ++s) {
        mean += y.at({b, c, s});
        ++n;
      }
    EXPECT_NEAR(mean / n, 0.0, 1e-4);
  }
  // Running stats moved toward the batch stats.
  EXPECT_NE(bn.running_mean.data()[0], 0.0f);
  // Eval mode uses running stats and is deterministic.
  bn.set_training(false);
  Tensor y1 = bn.forward(x);
  Tensor y2 = bn.forward(x);
  expect_tensor_near(y1, y2, 0.0);
}

TEST(BatchNormModule, GradientFlows) {
  Rng rng(7);
  nn::BatchNorm bn(2);
  Tensor x = Tensor::randn({3, 2, 4}, rng);
  x.set_requires_grad(true);
  bn.forward(x).sum().backward();
  EXPECT_TRUE(x.grad().defined());
  EXPECT_TRUE(bn.gamma.grad().defined());
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
  Tensor d0 = masked.slice(0, 0, 1).sub(open.slice(0, 0, 1)).abs().sum();
  Tensor d1 = masked.slice(0, 1, 1).sub(open.slice(0, 1, 1)).abs().sum();
  EXPECT_LT(d0.item(), 1e-6f);
  EXPECT_GT(d1.item(), 1e-6f);
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
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (ct::Shape{1, 3, 2, 2}));
  // Manual check of one output position using the token helper.
  Tensor tokens = nn::detail::blocks_to_tokens(x, {2, 2});
  EXPECT_EQ(tokens.shape(), (ct::Shape{1, 4, 8}));
}

TEST(PatchConv, RoundTripWithTranspose) {
  // blocks_to_tokens and tokens_to_blocks are exact inverses.
  Rng rng(14);
  Tensor x = Tensor::randn({2, 3, 4, 6}, rng);
  Tensor tokens = nn::detail::blocks_to_tokens(x, {2, 3});
  Tensor back = nn::detail::tokens_to_blocks(tokens, 3, {2, 2}, {2, 3});
  expect_tensor_near(back, x, 0.0);
}

TEST(PatchConvTranspose, UpsamplesShape) {
  Rng rng(15);
  nn::PatchConvTransposeNd up(4, 2, {2, 2, 2}, rng);
  Tensor x = Tensor::randn({1, 4, 2, 3, 2}, rng);
  EXPECT_EQ(up.forward(x).shape(), (ct::Shape{1, 2, 4, 6, 4}));
}

TEST(PatchConvTranspose, InverseOfPatchConvStructure) {
  // conv then transpose restores the spatial dims (not values).
  Rng rng(16);
  nn::PatchConvNd down(1, 4, {2, 2}, rng);
  nn::PatchConvTransposeNd up(4, 1, {2, 2}, rng);
  Tensor x = Tensor::randn({2, 1, 6, 4}, rng);
  EXPECT_EQ(up.forward(down.forward(x)).shape(), x.shape());
}

TEST(PointwiseConv, MixesChannelsOnly) {
  Rng rng(17);
  nn::PointwiseConvNd pw(3, 5, rng);
  Tensor x = Tensor::randn({2, 3, 4, 2, 3}, rng);
  Tensor y = pw.forward(x);
  EXPECT_EQ(y.shape(), (ct::Shape{2, 5, 4, 2, 3}));
}

TEST(Optimizer, SgdConvergesOnQuadratic) {
  Tensor w = Tensor::from_vector({2}, {5.0f, -3.0f});
  w.set_requires_grad(true);
  nn::Sgd opt({w}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    w.mul(w).sum().backward();
    opt.step();
  }
  EXPECT_NEAR(w.data()[0], 0.0f, 1e-3);
  EXPECT_NEAR(w.data()[1], 0.0f, 1e-3);
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

TEST(Checkpoint, MatchesUncheckpointedForwardAndGrads) {
  Rng rng(18);
  nn::Mlp mlp(4, 8, rng);
  Tensor x1 = Tensor::randn({3, 4}, rng);
  Tensor x2 = x1.detach();
  x1.set_requires_grad(true);
  x2.set_requires_grad(true);

  Tensor y_plain = mlp.forward(x1);
  y_plain.sum().backward();
  Tensor gx_plain = x1.grad();
  std::vector<float> gw_plain(mlp.parameters()[0].grad().data().begin(),
                              mlp.parameters()[0].grad().data().end());

  mlp.zero_grad();
  Tensor y_ckpt = nn::checkpoint(
      [&](const std::vector<Tensor>& in) { return mlp.forward(in[0]); },
      {x2}, mlp.parameters());
  expect_tensor_near(y_ckpt, y_plain, 1e-6);
  y_ckpt.sum().backward();
  expect_tensor_near(x2.grad(), gx_plain, 1e-5);
  Tensor gw_ckpt = mlp.parameters()[0].grad();
  ASSERT_TRUE(gw_ckpt.defined());
  for (size_t i = 0; i < gw_plain.size(); ++i)
    EXPECT_NEAR(gw_ckpt.data()[i], gw_plain[i], 1e-5f);
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
  Tensor x = Tensor::randn({4, 3, 2}, rng, 2.0f);
  bn1.forward(x);
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
