/// Tests for the parallel cache-blocked kernel layer (tensor/kernels.*):
/// blocked GEMM vs a reference triple loop across odd sizes and broadcast
/// batch shapes, NaN/Inf propagation semantics, bitwise serial-vs-parallel
/// agreement, softmax / layer-norm kernels, permute/transpose fast paths,
/// the sum_to gradient reduction against its odometer loop,
/// the attention head split/merge ops, and the attention module's NaN
/// containment, window mask and stage accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/surrogate.hpp"
#include "nn/attention.hpp"
#include "obs/profile.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"
#include "test_helpers.hpp"

using namespace coastal;
using tensor::Shape;
using tensor::Tensor;
using coastal::testing::at;
using coastal::testing::set;
namespace ker = tensor::kernels;

namespace {

/// Reference batched matmul: plain triple loop, no blocking, no skips.
Tensor reference_matmul(const Tensor& a, const Tensor& b) {
  const size_t nda = a.ndim(), ndb = b.ndim();
  const int64_t m = a.shape()[nda - 2], k = a.shape()[nda - 1];
  const int64_t n = b.shape()[ndb - 1];
  const Shape abatch(a.shape().begin(), a.shape().end() - 2);
  const Shape bbatch(b.shape().begin(), b.shape().end() - 2);
  const Shape batch = tensor::broadcast_shapes(abatch, bbatch);
  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(n);
  Tensor out = Tensor::zeros(out_shape);
  const Shape astr = tensor::broadcast_strides(abatch, batch);
  const Shape bstr = tensor::broadcast_strides(bbatch, batch);
  tensor::CoordIter it(batch);
  int64_t bi = 0;
  float* po = out.raw();
  do {
    const float* A = a.raw() + tensor::dot_strides(it.coords(), astr) * m * k;
    const float* B = b.raw() + tensor::dot_strides(it.coords(), bstr) * k * n;
    float* C = po + bi * m * n;
    for (int64_t i = 0; i < m; ++i)
      for (int64_t kk = 0; kk < k; ++kk)
        for (int64_t j = 0; j < n; ++j) C[i * n + j] += A[i * k + kk] * B[kk * n + j];
    ++bi;
  } while (it.next());
  return out;
}

}  // namespace

TEST(Kernels, MatmulMatchesReferenceAcrossTileBoundaries) {
  util::Rng rng(11);
  tensor::NoGradGuard ng;
  // Odd sizes crossing the MR/NR/Mc/Kc/Nc boundaries, plus tiny shapes
  // that stay on the naive path.
  const int64_t sizes[][3] = {{1, 1, 1},   {3, 5, 2},    {8, 8, 8},
                              {33, 65, 17}, {65, 33, 129}, {70, 256, 40},
                              {130, 40, 300}};
  for (const auto& s : sizes) {
    Tensor a = Tensor::randn({s[0], s[1]}, rng);
    Tensor b = Tensor::randn({s[1], s[2]}, rng);
    Tensor got = a.matmul(b);
    Tensor want = reference_matmul(a, b);
    EXPECT_LT(coastal::testing::max_abs_diff(got, want),
              1e-3 * std::sqrt(static_cast<double>(s[1])))
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(Kernels, RawGemmEntryPointAccumulatesIntoC) {
  // The public kernels::gemm contract is C += A·B (not overwrite).
  util::Rng rng(22);
  tensor::NoGradGuard ng;
  Tensor a = Tensor::randn({33, 17}, rng);
  Tensor b = Tensor::randn({17, 65}, rng);
  Tensor want = reference_matmul(a, b);
  std::vector<float> c(static_cast<size_t>(33 * 65), 1.0f);
  ker::gemm(a.raw(), b.raw(), c.data(), 33, 17, 65);
  const float* pw = want.raw();
  for (size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(c[i], pw[i] + 1.0f, 1e-3) << "flat index " << i;
}

TEST(Kernels, MatmulBroadcastBatchShapes) {
  util::Rng rng(12);
  tensor::NoGradGuard ng;
  struct Case {
    Shape a, b;
  };
  const Case cases[] = {
      {{2, 1, 9, 7}, {1, 3, 7, 5}},   // both sides broadcast
      {{4, 6, 5}, {5, 8}},            // batched x unbatched
      {{9, 7}, {3, 7, 4}},            // unbatched x batched
      {{2, 3, 33, 17}, {2, 3, 17, 65}},  // plain batch, odd tile edges
  };
  for (const auto& c : cases) {
    Tensor a = Tensor::randn(c.a, rng);
    Tensor b = Tensor::randn(c.b, rng);
    Tensor got = a.matmul(b);
    Tensor want = reference_matmul(a, b);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_LT(coastal::testing::max_abs_diff(got, want), 1e-2);
  }
}

// Regression: the historic inner-loop skip `if (a == 0.0f) continue;`
// silently suppressed NaN/Inf propagation from B wherever A had a zero.
// The blocked kernel must honor IEEE semantics: 0 * NaN = NaN, 0 * Inf = NaN.
TEST(Kernels, MatmulPropagatesNaNAndInfThroughZeroEntries) {
  tensor::NoGradGuard ng;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a = Tensor::from_vector({2, 2}, {1.0f, 0.0f, 2.0f, 3.0f});
  Tensor b = Tensor::from_vector({2, 2}, {5.0f, 6.0f, nan, inf});
  Tensor c = a.matmul(b);
  // Row 0 multiplies the NaN/Inf row of B by 0: 0*NaN and 0*Inf are NaN.
  EXPECT_TRUE(std::isnan(at(c, {0, 0})));
  EXPECT_TRUE(std::isnan(at(c, {0, 1})));
  EXPECT_TRUE(std::isnan(at(c, {1, 0})));           // 2*5 + 3*NaN
  EXPECT_TRUE(std::isinf(at(c, {1, 1})));           // 2*6 + 3*Inf

  // Also on the blocked (large) path: one zero A entry against an Inf in B.
  Tensor a2 = Tensor::ones({40, 64});
  Tensor b2 = Tensor::ones({64, 48});
  set(a2, {7, 3}, 0.0f);
  set(b2, {3, 11}, inf);
  Tensor c2 = a2.matmul(b2);
  EXPECT_TRUE(std::isnan(at(c2, {7, 11})));  // 0 * inf
  EXPECT_TRUE(std::isinf(at(c2, {6, 11})));  // 1 * inf
}

TEST(Kernels, SerialAndParallelResultsAreBitwiseIdentical) {
  util::Rng rng(13);
  Tensor a = Tensor::randn({3, 150, 70}, rng);
  Tensor b = Tensor::randn({3, 70, 200}, rng);
  Tensor x = Tensor::randn({37, 130}, rng);
  Tensor gamma = Tensor::randn({130}, rng);
  Tensor beta = Tensor::randn({130}, rng);
  Tensor big = Tensor::randn({5, 33, 65}, rng);
  Tensor bias = Tensor::randn({1, 33, 1}, rng);
  Tensor tokens = Tensor::randn({4, 4, 4, 3, 8, 5, 5, 2}, rng);
  Tensor rows = Tensor::randn({9600, 8}, rng);
  Tensor channel = Tensor::randn({8}, rng);
  tensor::NoGradGuard ng;

  auto run_all = [&] {
    std::vector<Tensor> r;
    r.push_back(a.matmul(b));
    r.push_back(x.softmax_lastdim());
    r.push_back(x.layer_norm(gamma, beta));
    r.push_back(big.transpose_last());
    r.push_back(big.permute({2, 0, 1}));
    r.push_back(big.add(bias));
    r.push_back(big.mul_scalar(0.5f));
    r.push_back(tokens.permute({0, 4, 1, 5, 2, 6, 3, 7}));  // tokens_to_blocks
    r.push_back(rows.add(channel));                        // BatchNorm affine
    return r;
  };

  coastal::testing::KernelConfigOverride guard;
  ker::config().num_threads = 1;
  auto serial = run_all();
  ker::config().num_threads = 8;
  ker::config().parallel_grain = 1;  // force chunked dispatch
  auto parallel = run_all();

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].shape(), parallel[i].shape()) << "result " << i;
    EXPECT_EQ(std::memcmp(serial[i].raw(), parallel[i].raw(),
                          static_cast<size_t>(serial[i].numel()) *
                              sizeof(float)),
              0)
        << "serial vs parallel mismatch in result " << i;
  }
}

TEST(Kernels, SoftmaxRowsMatchesReference) {
  util::Rng rng(14);
  Tensor x = Tensor::randn({21, 37}, rng);
  tensor::NoGradGuard ng;
  Tensor y = x.softmax_lastdim();
  for (int64_t r = 0; r < 21; ++r) {
    double denom = 0.0, mx = -1e30;
    for (int64_t c = 0; c < 37; ++c) mx = std::max(mx, (double)at(x, {r, c}));
    for (int64_t c = 0; c < 37; ++c) denom += std::exp(at(x, {r, c}) - mx);
    for (int64_t c = 0; c < 37; ++c) {
      EXPECT_NEAR(at(y, {r, c}), std::exp(at(x, {r, c}) - mx) / denom, 1e-5);
    }
  }
}

TEST(Kernels, LayerNormSinglePassMatchesTwoPassReference) {
  util::Rng rng(15);
  // Large mean offset stresses the E[x^2] - E[x]^2 formulation.
  Tensor x = Tensor::randn({9, 64}, rng).add_scalar(50.0f);
  Tensor gamma = Tensor::randn({64}, rng);
  Tensor beta = Tensor::randn({64}, rng);
  tensor::NoGradGuard ng;
  Tensor y = x.layer_norm(gamma, beta);
  for (int64_t r = 0; r < 9; ++r) {
    double mu = 0.0, var = 0.0;
    for (int64_t c = 0; c < 64; ++c) mu += at(x, {r, c});
    mu /= 64.0;
    for (int64_t c = 0; c < 64; ++c) {
      const double d = at(x, {r, c}) - mu;
      var += d * d;
    }
    var /= 64.0;
    const double is = 1.0 / std::sqrt(var + 1e-5);
    for (int64_t c = 0; c < 64; ++c) {
      const double want = at(gamma, {c}) * (at(x, {r, c}) - mu) * is + at(beta, {c});
      EXPECT_NEAR(at(y, {r, c}), want, 1e-3);
    }
  }
}

TEST(Kernels, TransposeAndPermuteFastPathsMatchCoordIterReference) {
  util::Rng rng(16);
  tensor::NoGradGuard ng;
  Tensor x = Tensor::randn({3, 33, 65}, rng);
  const std::vector<std::vector<size_t>> perms = {
      {0, 2, 1},  // blocked transpose fast path
      {2, 1, 0},
      {1, 2, 0},
  };
  for (const auto& perm : perms) {
    Tensor got = x.permute(perm);
    // CoordIter reference gather.
    Shape out_shape(3);
    for (size_t i = 0; i < 3; ++i) out_shape[i] = x.shape()[perm[i]];
    const Shape in_str = tensor::strides_of(x.shape());
    Shape gstr(3);
    for (size_t i = 0; i < 3; ++i) gstr[i] = in_str[perm[i]];
    tensor::CoordIter it(out_shape);
    size_t k = 0;
    do {
      EXPECT_EQ(got.raw()[k++],
                x.raw()[tensor::dot_strides(it.coords(), gstr)]);
    } while (it.next());
  }
}

TEST(Kernels, SplitQkvHeadMatchesPermuteSlicePath) {
  util::Rng rng(17);
  const int64_t B = 2, N = 5, heads = 3, hd = 4;
  const int64_t C = heads * hd;
  Tensor qkv = Tensor::randn({B, N, 3 * C}, rng);
  tensor::NoGradGuard ng;
  Tensor ref = qkv.reshape({B, N, 3, heads, hd}).permute({2, 0, 3, 1, 4});
  for (int which = 0; which < 3; ++which) {
    Tensor got = nn::split_qkv_head(qkv, heads, which);
    Tensor want = ref.slice(0, which, 1).reshape({B, heads, N, hd});
    coastal::testing::expect_tensor_near(got, want, 0.0);
  }
}

TEST(Kernels, MergeHeadsMatchesPermuteReshapePath) {
  util::Rng rng(18);
  const int64_t B = 2, heads = 3, N = 5, hd = 4;
  Tensor x = Tensor::randn({B, heads, N, hd}, rng);
  tensor::NoGradGuard ng;
  Tensor got = nn::merge_heads(x);
  Tensor want = x.permute({0, 2, 1, 3}).reshape({B, N, heads * hd});
  coastal::testing::expect_tensor_near(got, want, 0.0);
}

TEST(Kernels, SplitAndMergeHeadsGradcheck) {
  util::Rng rng(19);
  const int64_t B = 1, N = 3, heads = 2, hd = 2;
  const int64_t C = heads * hd;
  Tensor qkv = Tensor::randn({B, N, 3 * C}, rng);
  coastal::testing::gradcheck(
      [&](const Tensor& t) {
        Tensor q = nn::split_qkv_head(t, heads, 0);
        Tensor k = nn::split_qkv_head(t, heads, 1);
        Tensor v = nn::split_qkv_head(t, heads, 2);
        return nn::merge_heads(q.mul(k).add(v)).sum();
      },
      qkv);
}

TEST(Kernels, AttentionForwardGradcheck) {
  util::Rng rng(20);
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::randn({2, 3, 8}, rng);
  coastal::testing::gradcheck(
      [&](const Tensor& t) { return attn.forward(t).mul(t).sum(); }, x);
}

// ---------------------------------------------------------------------------
// Attention: NaN containment and the window mask
// ---------------------------------------------------------------------------

namespace {

/// True when every element of window `w` (a row of [B, N, C]) passes `ok`.
template <typename Pred>
bool window_all(const Tensor& y, int64_t w, Pred ok) {
  const int64_t per = y.numel() / y.shape()[0];
  const float* p = y.raw() + w * per;
  for (int64_t i = 0; i < per; ++i)
    if (!ok(p[i])) return false;
  return true;
}

}  // namespace

TEST(Kernels, AttentionNaNInOneTokenPoisonsExactlyItsWindow) {
  // A NaN in one token reaches its window's every score row (as a query
  // in its own row, as a key in the others), so the whole window's output
  // goes NaN whatever the mask, while the other windows stay finite.  The
  // verifier relies on exactly this to flag a bad surrogate answer.
  util::Rng rng(32);
  const int64_t groups = 2, rep = 2, B = rep * groups, N = 16, C = 8;
  nn::MultiHeadSelfAttention attn(C, 2, rng);
  const float inf = std::numeric_limits<float>::infinity();
  // Window index fastest in B.  Group 0 splits the window into halves
  // with -1e9 (the shifted-window pattern); group 1 forbids a column
  // stripe with -inf, every row keeping unmasked keys.
  std::vector<float> mdata(static_cast<size_t>(groups * N * N), 0.0f);
  for (int64_t i = 0; i < N; ++i)
    for (int64_t j = 0; j < N; ++j) {
      if ((i < N / 2) != (j < N / 2))
        mdata[static_cast<size_t>(i * N + j)] = -1e9f;
      if (j % 5 == 2) mdata[static_cast<size_t>((N + i) * N + j)] = -inf;
    }
  Tensor mask = Tensor::from_vector({groups, N, N}, std::move(mdata));
  Tensor x = Tensor::randn({B, N, C}, rng);
  tensor::NoGradGuard ng;
  Tensor clean = attn.forward(x, mask);
  for (int64_t w = 0; w < B; ++w)
    ASSERT_TRUE(window_all(clean, w, [](float v) { return std::isfinite(v); }));
  for (int64_t w = 0; w < B; ++w) {
    for (int64_t token : {int64_t{0}, N - 1, int64_t{7}}) {
      Tensor bad = x.detach();
      set(bad, {w, token, 3}, std::numeric_limits<float>::quiet_NaN());
      Tensor y = attn.forward(bad, mask);
      for (int64_t o = 0; o < B; ++o) {
        if (o == w) {
          EXPECT_TRUE(window_all(y, o, [](float v) { return std::isnan(v); }))
              << "window " << w << " token " << token;
        } else {
          EXPECT_TRUE(
              window_all(y, o, [](float v) { return std::isfinite(v); }))
              << "NaN in window " << w << " leaked into window " << o;
        }
      }
    }
  }
}

TEST(Kernels, AttentionInfMaskedKeyGetsWeightExactlyZero) {
  // Key j is masked with -inf in every row but its own, and every row
  // keeps an unmasked key.  Its weight in the other rows is then exactly
  // 0, so even a huge finite change to token j (a weight of 1e-38 would
  // carry it into the sums) leaves their outputs bitwise unchanged.  A
  // row whose every key is -inf has no distribution at all: it comes out
  // NaN, and only it.
  util::Rng rng(33);
  const int64_t N = 12, C = 8, j = 5, dead = 9;
  nn::MultiHeadSelfAttention attn(C, 2, rng);
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> mdata(static_cast<size_t>(N * N), 0.0f);
  for (int64_t i = 0; i < N; ++i)
    if (i != j) mdata[static_cast<size_t>(i * N + j)] = -inf;
  Tensor mask = Tensor::from_vector({1, N, N}, mdata);
  Tensor x = Tensor::randn({1, N, C}, rng);
  Tensor moved = x.detach();
  for (int64_t c = 0; c < C; ++c)
    set(moved, {0, j, c}, c % 2 == 0 ? 1e34f : -1e34f);
  tensor::NoGradGuard ng;
  Tensor y = attn.forward(x, mask);
  Tensor ym = attn.forward(moved, mask);
  const size_t row = static_cast<size_t>(C) * sizeof(float);
  for (int64_t i = 0; i < N; ++i) {
    if (i == j) continue;
    EXPECT_EQ(std::memcmp(y.raw() + i * C, ym.raw() + i * C, row), 0)
        << "masked key " << j << " reached row " << i;
  }
  EXPECT_NE(std::memcmp(y.raw() + j * C, ym.raw() + j * C, row), 0);

  for (int64_t k = 0; k < N; ++k)
    mdata[static_cast<size_t>(dead * N + k)] = -inf;
  Tensor yd = attn.forward(
      x, Tensor::from_vector({1, N, N}, std::move(mdata)));
  for (int64_t i = 0; i < N; ++i)
    for (int64_t c = 0; c < C; ++c) {
      if (i == dead) {
        EXPECT_TRUE(std::isnan(at(yd, {0, i, c}))) << "col " << c;
      } else {
        EXPECT_EQ(at(yd, {0, i, c}), at(y, {0, i, c})) << "row " << i;
      }
    }
}

TEST(Kernels, AttentionStageTakesOneSamplePerAttentionCall) {
  // Every MultiHeadSelfAttention::forward times its scores → mask →
  // softmax → ·V once under obs::Stage::kAttention, whatever the batch,
  // so tensor.attention_share measures the real share of a forward.
  auto& prof = obs::StageProfiler::instance();
  const bool was = prof.enabled();
  prof.set_enabled(true);
  tensor::NoGradGuard ng;

  // The paper-miniature surrogate: windows of N = 64 and N = 16 tokens.
  util::Rng rng(36);
  core::SurrogateConfig cfg;
  cfg.H = 20;
  cfg.W = 20;
  cfg.D = 6;
  cfg.T = 3;
  cfg.embed_dim = 8;
  cfg.heads = {2, 4, 8};
  core::SurrogateModel model(cfg, rng);
  model.set_training(false);
  uint64_t calls = 0;
  for (const auto& [name, p] : model.named_parameters()) {
    const std::string suffix = "attn.qkv.weight";
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      ++calls;
  }
  ASSERT_GT(calls, 0u);
  for (int64_t B : {1, 2}) {
    Tensor volume = Tensor::randn({B, 3, 20, 20, 6, 4}, rng);
    Tensor surface = Tensor::randn({B, 1, 20, 20, 4}, rng);
    prof.reset();
    (void)model.forward(volume, surface);
    EXPECT_EQ(prof.snapshot(obs::Stage::kAttention).total, calls)
        << "B = " << B;
  }

  prof.reset();
  prof.set_enabled(was);
}

TEST(Kernels, SoftmaxRowsPolynomialExpfStaysWithinTolerance) {
  // softmax_rows runs the branch-free polynomial expf (rel err <= ~2e-7);
  // pin agreement against libm at double precision, including
  // large-magnitude logits.
  util::Rng rng(48);
  Tensor x = Tensor::randn({13, 67}, rng).mul_scalar(10.0f);
  tensor::NoGradGuard ng;
  Tensor y = x.softmax_lastdim();
  for (int64_t r = 0; r < 13; ++r) {
    double mx = -1e300, denom = 0.0;
    for (int64_t c = 0; c < 67; ++c) mx = std::max(mx, (double)at(x, {r, c}));
    for (int64_t c = 0; c < 67; ++c) denom += std::exp(at(x, {r, c}) - mx);
    for (int64_t c = 0; c < 67; ++c)
      EXPECT_NEAR(at(y, {r, c}), std::exp(at(x, {r, c}) - mx) / denom, 1e-5)
          << "row " << r << " col " << c;
  }
  // -1e9- and -inf-masked logits must get weight exactly 0 (flush below
  // -104), and a row poisoned by NaN stays all-NaN — same contract as libm
  // expf.
  Tensor m = Tensor::from_vector(
      {1, 4}, {0.0f, -1e9f, 1.0f, -std::numeric_limits<float>::infinity()});
  Tensor ym = m.softmax_lastdim();
  EXPECT_EQ(at(ym, {0, 1}), 0.0f);
  EXPECT_EQ(at(ym, {0, 3}), 0.0f);
  EXPECT_NEAR(at(ym, {0, 0}) + at(ym, {0, 2}), 1.0f, 1e-6);
  Tensor n = Tensor::from_vector(
      {1, 3}, {0.0f, std::numeric_limits<float>::quiet_NaN(), 2.0f});
  Tensor yn = n.softmax_lastdim();
  for (int64_t c = 0; c < 3; ++c) EXPECT_TRUE(std::isnan(at(yn, {0, c})));
}

TEST(Kernels, MatmulGradcheckThroughBlockedKernel) {
  util::Rng rng(21);
  // 16·17·18 = 4896 multiply-adds, above the naive small-GEMM bound of
  // 4096, so the forward and both backward products take the blocked path.
  Tensor a = Tensor::randn({16, 17}, rng);
  Tensor b = Tensor::randn({17, 18}, rng);
  coastal::testing::gradcheck(
      [&](const Tensor& t) { return t.matmul(b).sum(); }, a);
  coastal::testing::gradcheck(
      [&](const Tensor& t) { return a.matmul(t).mul_scalar(0.5f).sum(); }, b);
}

namespace {

/// CoordIter reference for permute_gather: out[k] = src[coords(k)·strides].
std::vector<float> reference_gather(const float* src, const Shape& out_shape,
                                    const Shape& strides) {
  std::vector<float> out;
  if (tensor::numel(out_shape) == 0) return out;
  tensor::CoordIter it(out_shape);
  do {
    out.push_back(src[tensor::dot_strides(it.coords(), strides)]);
  } while (it.next());
  return out;
}

/// CoordIter reference for binary_broadcast.
std::vector<float> reference_broadcast(ker::BinOp op, const float* a,
                                       const float* b, const Shape& out_shape,
                                       const Shape& sa, const Shape& sb) {
  std::vector<float> out;
  if (tensor::numel(out_shape) == 0) return out;
  tensor::CoordIter it(out_shape);
  do {
    const float x = a[tensor::dot_strides(it.coords(), sa)];
    const float y = b[tensor::dot_strides(it.coords(), sb)];
    switch (op) {
      case ker::BinOp::kAdd: out.push_back(x + y); break;
      case ker::BinOp::kSub: out.push_back(x - y); break;
      case ker::BinOp::kMul: out.push_back(x * y); break;
      case ker::BinOp::kDiv: out.push_back(x / y); break;
    }
  } while (it.next());
  return out;
}

bool bitwise_equal(const std::vector<float>& want, const float* got) {
  return want.empty() ||
         std::memcmp(want.data(), got, want.size() * sizeof(float)) == 0;
}

/// permute_gather of a dense tensor of `in_shape` under `perm`, checked
/// bit for bit against the reference.
void expect_permute_matches(const Shape& in_shape,
                            const std::vector<size_t>& perm, util::Rng& rng) {
  std::vector<float> src(static_cast<size_t>(tensor::numel(in_shape)));
  for (auto& x : src) x = static_cast<float>(rng.normal());
  const Shape in_str = tensor::strides_of(in_shape);
  Shape out_shape(perm.size()), gstr(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    out_shape[i] = in_shape[perm[i]];
    gstr[i] = in_str[perm[i]];
  }
  const std::vector<float> want = reference_gather(src.data(), out_shape, gstr);
  std::vector<float> got(want.size() + 1, -7.0f);  // +1: overrun sentinel
  ker::permute_gather(src.data(), got.data(), out_shape, gstr);
  EXPECT_TRUE(bitwise_equal(want, got.data()))
      << "permute of " << tensor::shape_str(in_shape);
  EXPECT_EQ(got.back(), -7.0f) << "wrote past " << tensor::shape_str(out_shape);
  // permute_scatter under the same strides puts every float back.
  std::vector<float> back(src.size() + 1, -7.0f);
  ker::permute_scatter(got.data(), back.data(), out_shape, gstr);
  EXPECT_TRUE(bitwise_equal(src, back.data()))
      << "scatter of " << tensor::shape_str(out_shape);
  EXPECT_EQ(back.back(), -7.0f) << "scattered past " << tensor::shape_str(in_shape);
}

/// binary_broadcast of a ∘ b (numpy broadcast), all four ops, checked bit
/// for bit against the reference.
void expect_broadcast_matches(const Shape& a_shape, const Shape& b_shape,
                              util::Rng& rng) {
  Tensor a = Tensor::randn(a_shape, rng);
  Tensor b = Tensor::randn(b_shape, rng);
  const Shape out_shape = tensor::broadcast_shapes(a_shape, b_shape);
  const Shape sa = tensor::broadcast_strides(a_shape, out_shape);
  const Shape sb = tensor::broadcast_strides(b_shape, out_shape);
  for (ker::BinOp op : {ker::BinOp::kAdd, ker::BinOp::kSub, ker::BinOp::kMul,
                        ker::BinOp::kDiv}) {
    const std::vector<float> want =
        reference_broadcast(op, a.raw(), b.raw(), out_shape, sa, sb);
    std::vector<float> got(want.size() + 1, -7.0f);
    ker::binary_broadcast(op, a.raw(), b.raw(), got.data(), out_shape, sa, sb);
    EXPECT_TRUE(bitwise_equal(want, got.data()))
        << tensor::shape_str(a_shape) << " op" << static_cast<int>(op) << " "
        << tensor::shape_str(b_shape);
    EXPECT_EQ(got.back(), -7.0f);
  }
}

}  // namespace

TEST(Kernels, PermuteGatherMatchesCoordIterBitwiseOnModelShapes) {
  util::Rng rng(60);
  // The recovery transposed conv's scatter of [rows, (Cout, kh, kw, kd)]
  // onto the fine grid (patch 5×5×2 over the 20×20×6 mesh, embed 8,
  // B·T = 4), in the weight's column order and in the kernel-major order
  // eval projects into, and the patch gather's inverse.
  expect_permute_matches({4, 4, 4, 3, 8, 5, 5, 2}, {0, 1, 5, 2, 6, 3, 7, 4},
                         rng);
  expect_permute_matches({4, 4, 4, 3, 5, 5, 2, 8}, {0, 1, 4, 2, 5, 3, 6, 7},
                         rng);
  expect_permute_matches({4, 8, 4, 5, 4, 5, 3, 2}, {0, 2, 4, 6, 1, 3, 5, 7},
                         rng);
  // Channels-last and back (batched 2-D transposes), and the surrogate
  // output's [B, Tn, H, W, D, 3] -> [B, 3, H, W, D, Tn].
  expect_permute_matches({4, 8, 20, 20, 6}, {0, 2, 3, 4, 1}, rng);
  expect_permute_matches({4, 20, 20, 6, 8}, {0, 4, 1, 2, 3}, rng);
  expect_permute_matches({1, 4, 20, 20, 6, 3}, {0, 5, 2, 3, 4, 1}, rng);
  // The old window partition's and reverse's 10-axis permutes.
  expect_permute_matches({1, 16, 2, 4, 2, 4, 2, 2, 2, 2},
                         {0, 2, 4, 6, 8, 3, 5, 7, 9, 1}, rng);
  expect_permute_matches({1, 2, 2, 2, 2, 4, 4, 2, 2, 16},
                         {0, 9, 1, 5, 2, 6, 3, 7, 4, 8}, rng);
  // transpose_last on ragged tiles, a plain identity, and rank 0.
  expect_permute_matches({3, 33, 65}, {0, 2, 1}, rng);
  expect_permute_matches({7, 9}, {1, 0}, rng);
  expect_permute_matches({5, 1, 6}, {1, 0, 2}, rng);
  expect_permute_matches({}, {}, rng);

  // split_qkv_head's strided gather from a [B, N, 3C] buffer, and a
  // gather whose long innermost run is copied row by row.
  const int64_t B = 2, N = 64, C = 16, heads = 2, hd = 8;
  std::vector<float> qkv(static_cast<size_t>(B * N * 3 * C));
  for (auto& x : qkv) x = static_cast<float>(rng.normal());
  for (int64_t which = 0; which < 3; ++which) {
    const Shape out{B, heads, N, hd}, st{N * 3 * C, hd, 3 * C, 1};
    const auto want = reference_gather(qkv.data() + which * C, out, st);
    std::vector<float> got(want.size());
    ker::permute_gather(qkv.data() + which * C, got.data(), out, st);
    EXPECT_TRUE(bitwise_equal(want, got.data())) << "qkv slice " << which;
  }
  // A gather whose long innermost run is copied row by row, transposes
  // whose batches sit apart in the source (not the dense [nb, X, Y] the
  // tiled route requires), and a strided innermost axis too long for the
  // offset table.
  struct Strided {
    Shape out, strides;
    int64_t src_len;
  };
  const Strided strided[] = {{{3, 4, 40}, {40, 120, 1}, 480},
                             {{3, 5, 7}, {40, 1, 5}, 120},
                             {{3, 5, 7}, {35, 1, 6}, 147},
                             {{5, 7}, {1, 6}, 42},
                             {{2, 3000}, {1, 3}, 9000}};
  for (const auto& c : strided) {
    std::vector<float> src(static_cast<size_t>(c.src_len));
    for (auto& x : src) x = static_cast<float>(rng.normal());
    const auto want = reference_gather(src.data(), c.out, c.strides);
    std::vector<float> got(want.size());
    ker::permute_gather(src.data(), got.data(), c.out, c.strides);
    EXPECT_TRUE(bitwise_equal(want, got.data()))
        << tensor::shape_str(c.out) << " strides "
        << tensor::shape_str(c.strides);
    // Scattering back restores every gathered float and touches nothing
    // else (these gathers skip some source floats).
    std::vector<float> back(src.size(), 0.0f);
    ker::permute_scatter(got.data(), back.data(), c.out, c.strides);
    std::vector<float> want_back(src.size(), 0.0f);
    tensor::CoordIter it(c.out);
    do {
      const int64_t off = tensor::dot_strides(it.coords(), c.strides);
      want_back[static_cast<size_t>(off)] = src[static_cast<size_t>(off)];
    } while (it.next());
    EXPECT_TRUE(bitwise_equal(want_back, back.data()))
        << "scatter " << tensor::shape_str(c.out);
  }
}

TEST(Kernels, GatherRowsFollowsTheTable) {
  util::Rng rng(63);
  const int64_t batch = 3, rows = 37, cols = 8;
  std::vector<float> src(static_cast<size_t>(batch * rows * cols));
  for (auto& x : src) x = static_cast<float>(rng.normal());
  std::vector<int64_t> table(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) table[static_cast<size_t>(i)] = (i * 5 + 3) % rows;
  std::vector<float> got(src.size());
  ker::gather_rows(src.data(), got.data(), batch, rows, cols, table.data());
  for (int64_t b = 0; b < batch; ++b)
    for (int64_t i = 0; i < rows; ++i)
      for (int64_t c = 0; c < cols; ++c)
        ASSERT_EQ(got[static_cast<size_t>((b * rows + i) * cols + c)],
                  src[static_cast<size_t>(
                      (b * rows + table[static_cast<size_t>(i)]) * cols + c)]);
}

TEST(Kernels, PermuteGatherMatchesCoordIterBitwiseOnRandomShapes) {
  util::Rng rng(61);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t rank = rng.uniform_index(11);  // 0–10
    Shape shape(rank);
    int64_t budget = 20000;
    for (auto& d : shape) {
      // Mostly small extents, with size-1 axes common and size-0 rare.
      const uint64_t r = rng.uniform_index(20);
      d = r == 0 ? 0 : r < 6 ? 1 : static_cast<int64_t>(2 + rng.uniform_index(7));
      if (d > 1 && budget / d < 1) d = 1;
      if (d > 1) budget /= d;
    }
    std::vector<size_t> perm(rank);
    for (size_t i = 0; i < rank; ++i) perm[i] = i;
    for (size_t i = rank; i > 1; --i)
      std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
    expect_permute_matches(shape, perm, rng);
  }
}

TEST(Kernels, BinaryBroadcastMatchesCoordIterBitwise) {
  util::Rng rng(62);
  // The model's shapes: BatchNorm's [rows, C] ∘ [C] (both orders), the
  // grouped eval statistics [G, R, C] ∘ [G, 1, C], per-row scalars, and
  // a row long enough to be split into column chunks.
  expect_broadcast_matches({9600, 8}, {8}, rng);
  expect_broadcast_matches({8}, {9600, 8}, rng);
  expect_broadcast_matches({1, 8}, {9600, 8}, rng);
  expect_broadcast_matches({4, 2400, 8}, {4, 1, 8}, rng);
  expect_broadcast_matches({37, 130}, {37, 1}, rng);
  expect_broadcast_matches({3, 3000}, {3000}, rng);
  expect_broadcast_matches({5, 33, 65}, {1, 33, 1}, rng);
  expect_broadcast_matches({}, {}, rng);
  expect_broadcast_matches({4, 0, 3}, {3}, rng);

  // Random shapes broadcasting on every axis: each axis is full on both
  // sides, or 1 on a, or 1 on b, or 1 on both; either side may also drop
  // leading axes.
  for (int trial = 0; trial < 300; ++trial) {
    const size_t rank = rng.uniform_index(11);
    Shape a(rank), b(rank);
    int64_t budget = 20000;
    for (size_t i = 0; i < rank; ++i) {
      int64_t d = static_cast<int64_t>(1 + rng.uniform_index(6));
      if (rng.uniform_index(40) == 0) d = 0;
      if (d > 1 && budget / d < 1) d = 1;
      if (d > 1) budget /= d;
      const uint64_t mode = rng.uniform_index(4);
      a[i] = (mode == 1 || mode == 3) ? 1 : d;
      b[i] = (mode == 2 || mode == 3) ? 1 : d;
    }
    if (rank > 0 && rng.uniform_index(3) == 0)
      a.erase(a.begin(), a.begin() + static_cast<int64_t>(rng.uniform_index(rank + 1)));
    else if (rank > 0 && rng.uniform_index(2) == 0)
      b.erase(b.begin(), b.begin() + static_cast<int64_t>(rng.uniform_index(rank + 1)));
    expect_broadcast_matches(a, b, rng);
  }
}

namespace {

/// Odometer reference for sum_to: out[coords·out_strides] += src[k], k
/// ascending, from zeros.
std::vector<float> reference_sum_to(const float* src, const Shape& in_shape,
                                    const Shape& out_shape) {
  std::vector<float> out(static_cast<size_t>(tensor::numel(out_shape)), 0.0f);
  if (tensor::numel(in_shape) == 0) return out;
  const Shape ostr = tensor::broadcast_strides(out_shape, in_shape);
  tensor::CoordIter it(in_shape);
  int64_t k = 0;
  do {
    out[static_cast<size_t>(tensor::dot_strides(it.coords(), ostr))] +=
        src[k++];
  } while (it.next());
  return out;
}

/// Bitwise equal, except that a NaN matches any NaN: which operand's
/// payload and sign a sum of two NaNs keeps is the compiler's choice of
/// operand order, in the reference loop as in the kernel.
bool same_sums(const std::vector<float>& want, const float* got) {
  for (size_t i = 0; i < want.size(); ++i) {
    const bool both_nan = std::isnan(want[i]) && std::isnan(got[i]);
    if (!both_nan && std::memcmp(&want[i], got + i, sizeof(float)) != 0)
      return false;
  }
  return true;
}

/// Values spread over nine decades, so a sum's rounding depends on its
/// order, with NaN, +Inf and −Inf sprinkled in when `specials`.
std::vector<float> order_sensitive_values(int64_t n, util::Rng& rng,
                                          bool specials) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) {
    x = static_cast<float>(rng.normal() * std::pow(10.0, rng.uniform(-3, 6)));
    if (specials && rng.uniform_index(40) == 0) {
      const float s[] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity()};
      x = s[rng.uniform_index(3)];
    }
  }
  return v;
}

/// sum_to of `in_shape` onto `out_shape`, and the broadcast back of
/// `out_shape` onto `in_shape` (the stride-0 gather), each checked bit
/// for bit (NaN payloads aside) against its odometer reference at 1 and
/// at 4 kernel threads; `Tensor::sum_to` must be the kernel.
void expect_sum_to_matches(const Shape& in_shape, const Shape& out_shape,
                           util::Rng& rng, bool specials = false) {
  const std::string what =
      tensor::shape_str(in_shape) + " -> " + tensor::shape_str(out_shape);
  const int64_t n_in = tensor::numel(in_shape);
  const int64_t n_out = tensor::numel(out_shape);
  const std::vector<float> src = order_sensitive_values(n_in, rng, specials);
  const std::vector<float> small = order_sensitive_values(n_out, rng, specials);
  const std::vector<float> want = reference_sum_to(src.data(), in_shape,
                                                   out_shape);
  const Shape bstr = tensor::broadcast_strides(out_shape, in_shape);
  const std::vector<float> want_b =
      reference_gather(small.data(), in_shape, bstr);
  coastal::testing::KernelConfigOverride guard;
  for (int threads : {1, 4}) {
    ker::config().num_threads = threads;
    ker::config().parallel_grain = threads > 1 ? 1 : 0;
    std::vector<float> got(want.size() + 1, -7.0f);  // +1: overrun sentinel
    ker::sum_to(src.data(), in_shape, got.data(), out_shape);
    EXPECT_TRUE(same_sums(want, got.data()))
        << "sum_to " << what << " at " << threads << " threads";
    EXPECT_EQ(got.back(), -7.0f) << "wrote past " << what;
    std::vector<float> back(want_b.size() + 1, -7.0f);
    ker::permute_gather(small.data(), back.data(), in_shape, bstr);
    EXPECT_TRUE(bitwise_equal(want_b, back.data()))
        << "broadcast " << what << " at " << threads << " threads";
    EXPECT_EQ(back.back(), -7.0f) << "broadcast past " << what;
  }
  if (in_shape != out_shape) {
    const Tensor t = Tensor::from_vector(in_shape, src);
    EXPECT_TRUE(same_sums(want, t.sum_to(out_shape).raw())) << what;
  }
}

}  // namespace

TEST(Kernels, SumToMatchesCoordIterBitwise) {
  util::Rng rng(64);
  // Training BatchNorm's channel sums, a bias gradient with leading extra
  // axes, everything summed to [1], rows summed to a column, and the
  // window-mask gradient view [B/g, g, h, N, N] -> [1, g, 1, N, N].
  expect_sum_to_matches({9600, 8}, {8}, rng);
  expect_sum_to_matches({9600, 8}, {1, 8}, rng);
  expect_sum_to_matches({3, 300, 4}, {3, 1, 4}, rng);
  expect_sum_to_matches({50, 16}, {1, 16}, rng);
  expect_sum_to_matches({2, 3, 5, 24}, {24}, rng);
  expect_sum_to_matches({2, 3, 5, 24}, {5, 1}, rng);
  expect_sum_to_matches({7, 9, 11}, {1}, rng);
  expect_sum_to_matches({7, 9, 11}, {1, 1, 1}, rng);
  expect_sum_to_matches({37, 130}, {37, 1}, rng);
  expect_sum_to_matches({2, 4, 2, 16, 16}, {1, 4, 1, 16, 16}, rng);
  expect_sum_to_matches({3, 2, 2, 64, 64}, {1, 2, 1, 64, 64}, rng);
  // NaN/Inf reach exactly the sums the reference puts them in.
  expect_sum_to_matches({64, 8}, {8}, rng, /*specials=*/true);
  expect_sum_to_matches({6, 50}, {6, 1}, rng, /*specials=*/true);
  // Rank 0, a single element, and empty inputs and outputs.
  expect_sum_to_matches({}, {}, rng);
  expect_sum_to_matches({1, 1}, {1}, rng);
  expect_sum_to_matches({0, 3}, {3}, rng);
  expect_sum_to_matches({4, 0, 3}, {1, 1, 3}, rng);
  expect_sum_to_matches({2, 0}, {0}, rng);

  // Random ranks 0–6: each axis kept, summed to 1, or size 1, and the
  // output may also drop leading axes.
  for (int trial = 0; trial < 300; ++trial) {
    const size_t rank = rng.uniform_index(7);
    Shape in(rank), out(rank);
    int64_t budget = 20000;
    for (size_t i = 0; i < rank; ++i) {
      int64_t d = static_cast<int64_t>(2 + rng.uniform_index(6));
      if (rng.uniform_index(40) == 0) d = 0;
      if (d > 1 && budget / d < 1) d = 1;
      if (d > 1) budget /= d;
      const uint64_t mode = rng.uniform_index(3);  // kept, summed, size 1
      in[i] = mode == 2 ? 1 : d;
      out[i] = mode == 0 ? in[i] : 1;
    }
    if (rank > 0 && rng.uniform_index(3) == 0)
      out.erase(out.begin(),
                out.begin() + static_cast<int64_t>(rng.uniform_index(rank + 1)));
    expect_sum_to_matches(in, out, rng, /*specials=*/trial % 4 == 0);
  }

  // Tensor::sum_axis is the same reduction, on the same kernel.
  for (const Shape& shape :
       {Shape{9600, 8}, Shape{4, 2400, 8}, Shape{5, 33, 65}}) {
    const std::vector<float> src =
        order_sensitive_values(tensor::numel(shape), rng, true);
    const Tensor t = Tensor::from_vector(shape, src);
    for (int axis = 0; axis < static_cast<int>(shape.size()); ++axis) {
      Shape keep = shape;
      keep[static_cast<size_t>(axis)] = 1;
      EXPECT_TRUE(same_sums(reference_sum_to(src.data(), shape, keep),
                            t.sum_axis(axis, /*keepdim=*/true).raw()))
          << "sum_axis " << tensor::shape_str(shape) << " axis " << axis;
    }
  }
}

TEST(Kernels, GeluBackwardDoesNotDependOnPosition) {
  // An element's gradient must not depend on where the call's range or a
  // parallel chunk starts and ends: one call over the array, a call per
  // element, and calls over ragged pieces agree bit for bit.
  util::Rng rng(64);
  const int64_t n = 1031;
  std::vector<float> g(static_cast<size_t>(n)), x(g.size());
  for (size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<float>(rng.normal());
    x[i] = static_cast<float>(3.0 * rng.normal());
  }
  std::vector<float> whole(g.size()), single(g.size()), ragged(g.size());
  ker::gelu_backward(g.data(), x.data(), whole.data(), n);
  for (int64_t i = 0; i < n; ++i)
    ker::gelu_backward(g.data() + i, x.data() + i, single.data() + i, 1);
  for (int64_t lo = 0, len = 1; lo < n; lo += len, len = len % 37 + 5)
    ker::gelu_backward(g.data() + lo, x.data() + lo, ragged.data() + lo,
                       std::min(len, n - lo));
  EXPECT_TRUE(bitwise_equal(whole, single.data()));
  EXPECT_TRUE(bitwise_equal(whole, ragged.data()));
}

TEST(Kernels, GeluPolynomialErfStaysWithinTolerance) {
  // kernels::gelu runs a branch-free rational erf; pin its absolute error
  // against the double-precision erf form on a dense sweep of [-12, 12],
  // and its IEEE special values against std::erf's.
  constexpr int64_t kN = 2400001;
  std::vector<float> x(kN), y(kN), g(kN, 1.0f), gx(kN);
  for (int64_t i = 0; i < kN; ++i)
    x[i] = -12.0f + 24.0f * static_cast<float>(i) / static_cast<float>(kN - 1);
  ker::gelu(x.data(), y.data(), kN);
  ker::gelu_backward(g.data(), x.data(), gx.data(), kN);
  double worst = 0.0, worst_grad = 0.0;
  for (int64_t i = 0; i < kN; ++i) {
    const double v = x[i];
    const double cdf = 0.5 * (1.0 + std::erf(v / std::sqrt(2.0)));
    const double pdf = std::exp(-0.5 * v * v) / std::sqrt(2.0 * 3.14159265358979323846);
    worst = std::max(worst, std::abs(y[i] - v * cdf));
    worst_grad = std::max(worst_grad, std::abs(gx[i] - (cdf + v * pdf)));
  }
  EXPECT_LE(worst, 2e-6);
  EXPECT_LE(worst_grad, 1e-5);

  auto reference = [](float v) {
    return 0.5f * v * (1.0f + std::erf(v * 0.7071067811865475f));
  };
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), 0.0f,
                            -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  float out[5];
  ker::gelu(specials, out, 5);
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_FALSE(std::signbit(out[1]));
  EXPECT_EQ(out[2], 0.0f);
  EXPECT_TRUE(std::signbit(out[2]));
  EXPECT_EQ(out[3], std::numeric_limits<float>::infinity());
  const float want_neg_inf = reference(specials[4]);
  if (std::isnan(want_neg_inf))
    EXPECT_TRUE(std::isnan(out[4]));
  else
    EXPECT_EQ(out[4], want_neg_inf);

  // Tensor::gelu is this kernel.
  Tensor t = Tensor::from_vector({5}, {-3.0f, -0.5f, 0.0f, 0.7f, 4.0f});
  Tensor tg = t.gelu();
  float direct[5];
  ker::gelu(t.raw(), direct, 5);
  EXPECT_EQ(std::memcmp(tg.raw(), direct, sizeof(direct)), 0);
}
