/// Tests for the parallel cache-blocked kernel layer (tensor/kernels.*):
/// blocked GEMM vs a reference triple loop across odd sizes and broadcast
/// batch shapes, NaN/Inf propagation semantics, bitwise serial-vs-parallel
/// agreement, softmax / layer-norm kernels, permute/transpose fast paths,
/// and the fused attention head split/merge ops.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/surrogate.hpp"
#include "nn/attention.hpp"
#include "nn/checkpoint.hpp"
#include "obs/profile.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"
#include "test_helpers.hpp"

using namespace coastal;
using tensor::Shape;
using tensor::Tensor;
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
  EXPECT_TRUE(std::isnan(c.at({0, 0})));
  EXPECT_TRUE(std::isnan(c.at({0, 1})));
  EXPECT_TRUE(std::isnan(c.at({1, 0})));           // 2*5 + 3*NaN
  EXPECT_TRUE(std::isinf(c.at({1, 1})));           // 2*6 + 3*Inf

  // Also on the blocked (large) path: one zero A entry against an Inf in B.
  Tensor a2 = Tensor::ones({40, 64});
  Tensor b2 = Tensor::ones({64, 48});
  a2.set({7, 3}, 0.0f);
  b2.set({3, 11}, inf);
  Tensor c2 = a2.matmul(b2);
  EXPECT_TRUE(std::isnan(c2.at({7, 11})));  // 0 * inf
  EXPECT_TRUE(std::isinf(c2.at({6, 11})));  // 1 * inf
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
    r.push_back(big.exp());
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
    for (int64_t c = 0; c < 37; ++c) mx = std::max(mx, (double)x.at({r, c}));
    for (int64_t c = 0; c < 37; ++c) denom += std::exp(x.at({r, c}) - mx);
    for (int64_t c = 0; c < 37; ++c) {
      EXPECT_NEAR(y.at({r, c}), std::exp(x.at({r, c}) - mx) / denom, 1e-5);
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
    for (int64_t c = 0; c < 64; ++c) mu += x.at({r, c});
    mu /= 64.0;
    for (int64_t c = 0; c < 64; ++c) {
      const double d = x.at({r, c}) - mu;
      var += d * d;
    }
    var /= 64.0;
    const double is = 1.0 / std::sqrt(var + 1e-5);
    for (int64_t c = 0; c < 64; ++c) {
      const double want = gamma.at({c}) * (x.at({r, c}) - mu) * is + beta.at({c});
      EXPECT_NEAR(y.at({r, c}), want, 1e-3);
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

TEST(Kernels, AttentionForwardGradcheckThroughFusedPath) {
  util::Rng rng(20);
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::randn({2, 3, 8}, rng);
  coastal::testing::gradcheck(
      [&](const Tensor& t) { return attn.forward(t).mul(t).sum(); }, x);
}

// ---------------------------------------------------------------------------
// Fused (flash-style) attention
// ---------------------------------------------------------------------------

namespace {

/// Unfused reference: materialize scores, softmax, weighted sum — the same
/// tensor-op chain the training path records.  q/k/v are [B, h, N, d];
/// mask (optional) is the additive [groups, N, N] window bias.
Tensor reference_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                           const Tensor& mask, float scale) {
  const int64_t B = q.shape()[0], h = q.shape()[1], N = q.shape()[2];
  Tensor scores = q.matmul(k.transpose_last()).mul_scalar(scale);
  if (mask.defined()) {
    const int64_t groups = mask.shape()[0];
    Tensor s5 = scores.reshape({B / groups, groups, h, N, N});
    Tensor m5 = mask.reshape({1, groups, 1, N, N});
    scores = s5.add(m5).reshape({B, h, N, N});
  }
  return scores.softmax_lastdim().matmul(v);
}

/// Drive kernels::attention_fused on [B, h, N, d] tensors, mirroring the
/// per-(batch × head) mask-offset layout nn::fused_attention builds.
Tensor run_fused(const Tensor& q, const Tensor& k, const Tensor& v,
                 const Tensor& mask, float scale) {
  const int64_t B = q.shape()[0], h = q.shape()[1], N = q.shape()[2],
                d = q.shape()[3];
  const int64_t nb = B * h;
  std::vector<float> out(static_cast<size_t>(nb * N * d));
  std::vector<int64_t> moff;
  const float* mp = nullptr;
  if (mask.defined()) {
    const int64_t groups = mask.shape()[0];
    moff.resize(static_cast<size_t>(nb));
    for (int64_t e = 0; e < nb; ++e) moff[e] = ((e / h) % groups) * N * N;
    mp = mask.raw();
  }
  ker::attention_fused(q.raw(), k.raw(), v.raw(), out.data(), nb, N, N, d,
                       scale, mp, moff);
  return Tensor::from_vector({B, h, N, d}, std::move(out));
}

}  // namespace

TEST(Kernels, FusedAttentionMatchesReferenceAcrossOddShapes) {
  util::Rng rng(30);
  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  // Small blocks so even short sequences cross query/KV block boundaries.
  ker::config().attn_bq = 8;
  ker::config().attn_bkv = 16;
  // Odd / non-power-of-two N straddling both block sizes; odd head dim.
  const int64_t seqs[] = {1, 3, 17, 33, 97};
  for (int64_t N : seqs) {
    const int64_t B = 2, h = 3, d = 5;
    Tensor q = Tensor::randn({B, h, N, d}, rng);
    Tensor k = Tensor::randn({B, h, N, d}, rng);
    Tensor v = Tensor::randn({B, h, N, d}, rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    Tensor got = run_fused(q, k, v, Tensor(), scale);
    Tensor want = reference_attention(q, k, v, Tensor(), scale);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_LT(coastal::testing::max_abs_diff(got, want), 1e-5) << "N=" << N;
  }
}

TEST(Kernels, FusedAttentionMaskedWindowsMatchReference) {
  util::Rng rng(31);
  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_bq = 4;
  ker::config().attn_bkv = 8;
  // B = rep * groups with window index fastest-varying; the -1e9 entries
  // reproduce the shifted-window cross-boundary mask pattern.
  const int64_t groups = 2, rep = 2, B = rep * groups, h = 2, N = 21, d = 6;
  Tensor q = Tensor::randn({B, h, N, d}, rng);
  Tensor k = Tensor::randn({B, h, N, d}, rng);
  Tensor v = Tensor::randn({B, h, N, d}, rng);
  std::vector<float> mdata(static_cast<size_t>(groups * N * N), 0.0f);
  for (int64_t g = 0; g < groups; ++g)
    for (int64_t i = 0; i < N; ++i)
      for (int64_t j = 0; j < N; ++j)
        // Group 0: block-diagonal halves; group 1: forbid a column stripe.
        if ((g == 0 && (i < N / 2) != (j < N / 2)) || (g == 1 && j % 5 == 2))
          mdata[static_cast<size_t>((g * N + i) * N + j)] = -1e9f;
  Tensor mask = Tensor::from_vector({groups, N, N}, std::move(mdata));
  const float scale = 0.4f;
  Tensor got = run_fused(q, k, v, mask, scale);
  Tensor want = reference_attention(q, k, v, mask, scale);
  EXPECT_LT(coastal::testing::max_abs_diff(got, want), 1e-5);
  // Fully-masked scores must not leak weight: disallowed columns get
  // softmax mass ~e^-1e9 = 0, so rows still sum to the allowed mass only.
  EXPECT_TRUE(std::isfinite(got.at({0, 0, 0, 0})));
}

TEST(Kernels, FusedAttentionPropagatesNaNAndInf) {
  util::Rng rng(32);
  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_bq = 8;
  ker::config().attn_bkv = 8;
  const int64_t B = 1, h = 1, N = 20, d = 4;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float scale = 0.5f;

  // NaN in one query row poisons exactly that output row (every score in
  // the row is NaN), and no other row.
  {
    Tensor q = Tensor::randn({B, h, N, d}, rng);
    Tensor k = Tensor::randn({B, h, N, d}, rng);
    Tensor v = Tensor::randn({B, h, N, d}, rng);
    q.set({0, 0, 7, 2}, nan);
    Tensor got = run_fused(q, k, v, Tensor(), scale);
    for (int64_t dd = 0; dd < d; ++dd)
      EXPECT_TRUE(std::isnan(got.at({0, 0, 7, dd}))) << "dd=" << dd;
    for (int64_t dd = 0; dd < d; ++dd)
      EXPECT_TRUE(std::isfinite(got.at({0, 0, 6, dd}))) << "dd=" << dd;
  }
  // NaN in one key row lands in every score row: the whole batch entry
  // goes NaN, matching the unfused softmax (NaN denom poisons the row).
  {
    Tensor q = Tensor::randn({B, h, N, d}, rng);
    Tensor k = Tensor::randn({B, h, N, d}, rng);
    Tensor v = Tensor::randn({B, h, N, d}, rng);
    k.set({0, 0, 13, 1}, nan);
    Tensor got = run_fused(q, k, v, Tensor(), scale);
    for (int64_t i = 0; i < N; ++i)
      EXPECT_TRUE(std::isnan(got.at({0, 0, i, 0}))) << "row " << i;
  }
  // NaN in a value row reaches every output row through the (always
  // positive) softmax weights.
  {
    Tensor q = Tensor::randn({B, h, N, d}, rng);
    Tensor k = Tensor::randn({B, h, N, d}, rng);
    Tensor v = Tensor::randn({B, h, N, d}, rng);
    v.set({0, 0, 5, 3}, nan);
    Tensor got = run_fused(q, k, v, Tensor(), scale);
    for (int64_t i = 0; i < N; ++i)
      EXPECT_TRUE(std::isnan(got.at({0, 0, i, 3}))) << "row " << i;
    EXPECT_TRUE(std::isfinite(got.at({0, 0, 0, 0})));
  }
  // A +inf score turns the row into NaN in the unfused softmax
  // (exp(inf - inf)); the online recurrence must agree, not silently
  // renormalize it away.
  {
    Tensor q = Tensor::zeros({B, h, N, d});
    Tensor k = Tensor::zeros({B, h, N, d});
    Tensor v = Tensor::ones({B, h, N, d});
    q.set({0, 0, 2, 0}, inf);
    k.set({0, 0, 9, 0}, 1.0f);  // score(2, 9) = inf
    Tensor got = run_fused(q, k, v, Tensor(), scale);
    Tensor want = reference_attention(q, k, v, Tensor(), scale);
    for (int64_t i = 0; i < N; ++i)
      EXPECT_EQ(std::isnan(got.at({0, 0, i, 0})),
                std::isnan(want.at({0, 0, i, 0})))
          << "row " << i;
    for (int64_t dd = 0; dd < d; ++dd)
      EXPECT_TRUE(std::isnan(got.at({0, 0, 2, dd})));
  }
}

TEST(Kernels, FusedAttentionInfMaskFullyMaskedBlocksMatchReference) {
  // The conventional additive mask uses -inf, not -1e9.  A query row whose
  // leading KV blocks are *entirely* -inf must not NaN-poison the online
  // recurrence (exp(-inf - -inf)): the reference softmax, whose max spans
  // the whole row, gives those keys weight 0 and a finite result.
  util::Rng rng(36);
  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_bq = 8;
  ker::config().attn_bkv = 8;
  const int64_t B = 1, h = 2, N = 40, d = 6;
  const float inf = std::numeric_limits<float>::infinity();
  Tensor q = Tensor::randn({B, h, N, d}, rng);
  Tensor k = Tensor::randn({B, h, N, d}, rng);
  Tensor v = Tensor::randn({B, h, N, d}, rng);
  std::vector<float> mdata(static_cast<size_t>(N * N), 0.0f);
  // Every row: first 24 keys (= 3 full KV blocks) disallowed.
  for (int64_t i = 0; i < N; ++i)
    for (int64_t j = 0; j < 24; ++j)
      mdata[static_cast<size_t>(i * N + j)] = -inf;
  // Row 11: *all* keys disallowed — both paths must yield NaN (0/0).
  for (int64_t j = 0; j < N; ++j)
    mdata[static_cast<size_t>(11 * N + j)] = -inf;
  Tensor mask = Tensor::from_vector({1, N, N}, std::move(mdata));
  Tensor got = run_fused(q, k, v, mask, 0.5f);
  Tensor want = reference_attention(q, k, v, mask, 0.5f);
  for (int64_t hh = 0; hh < h; ++hh) {
    for (int64_t dd = 0; dd < d; ++dd) {
      EXPECT_TRUE(std::isnan(got.at({0, hh, 11, dd})));
      EXPECT_TRUE(std::isnan(want.at({0, hh, 11, dd})));
    }
    for (int64_t i = 0; i < N; ++i) {
      if (i == 11) continue;
      for (int64_t dd = 0; dd < d; ++dd) {
        const double g = got.at({0, hh, i, dd}), w = want.at({0, hh, i, dd});
        EXPECT_TRUE(std::isfinite(g)) << "row " << i;
        EXPECT_NEAR(g, w, 1e-5) << "row " << i << " dd " << dd;
      }
    }
  }
}

TEST(Kernels, FusedAttentionSerialVsParallelBitwise) {
  util::Rng rng(33);
  tensor::NoGradGuard ng;
  const int64_t B = 3, h = 2, N = 70, d = 8;
  Tensor q = Tensor::randn({B, h, N, d}, rng);
  Tensor k = Tensor::randn({B, h, N, d}, rng);
  Tensor v = Tensor::randn({B, h, N, d}, rng);
  Tensor mask;
  {
    std::vector<float> mdata(static_cast<size_t>(3 * N * N), 0.0f);
    for (size_t i = 0; i < mdata.size(); i += 7) mdata[i] = -1e9f;
    mask = Tensor::from_vector({3, N, N}, std::move(mdata));
  }
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_bq = 16;  // several tasks per batch entry
  ker::config().attn_bkv = 32;
  ker::config().num_threads = 1;
  Tensor serial = run_fused(q, k, v, mask, 0.3f);
  ker::config().num_threads = 8;
  ker::config().parallel_grain = 1;  // force chunked dispatch
  Tensor parallel = run_fused(q, k, v, mask, 0.3f);
  ASSERT_EQ(serial.shape(), parallel.shape());
  EXPECT_EQ(std::memcmp(serial.raw(), parallel.raw(),
                        static_cast<size_t>(serial.numel()) * sizeof(float)),
            0);
}

TEST(Kernels, AttentionModuleRoutesFusedAndUnfusedConsistently) {
  util::Rng rng(34);
  nn::MultiHeadSelfAttention attn(24, 4, rng);
  const int64_t B = 4, N = 48;
  Tensor x = Tensor::randn({B, N, 24}, rng);
  std::vector<float> mdata(static_cast<size_t>(2 * N * N), 0.0f);
  for (int64_t i = 0; i < N; ++i)
    for (int64_t j = 0; j < N; ++j)
      if ((i + j) % 3 == 0) mdata[static_cast<size_t>((N + i) * N + j)] = -1e9f;
  Tensor mask = Tensor::from_vector({2, N, N}, std::move(mdata));

  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_fused_min_n = 1;  // force the fused inference path
  Tensor fused_plain = attn.forward(x);
  Tensor fused_masked = attn.forward(x, mask);
  ker::config().attn_fused_min_n = N + 1;  // force the unfused path
  Tensor unfused_plain = attn.forward(x);
  Tensor unfused_masked = attn.forward(x, mask);
  coastal::testing::expect_tensor_near(fused_plain, unfused_plain, 1e-4);
  coastal::testing::expect_tensor_near(fused_masked, unfused_masked, 1e-4);
}

TEST(Kernels, AttentionFallbackThresholdKeepsTinyWindowsUnfused) {
  util::Rng rng(35);
  nn::MultiHeadSelfAttention attn(16, 2, rng);
  Tensor x = Tensor::randn({2, 8, 16}, rng);  // N = 8
  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  // Default config (attn_fused_min_n = 0, never fused): the forward must
  // be bitwise identical to an explicitly-unfused forward.
  ASSERT_EQ(0, ker::config().attn_fused_min_n);
  Tensor below = attn.forward(x);
  ker::config().attn_fused_min_n = 1000000;
  Tensor unfused = attn.forward(x);
  ASSERT_EQ(below.shape(), unfused.shape());
  EXPECT_EQ(std::memcmp(below.raw(), unfused.raw(),
                        static_cast<size_t>(below.numel()) * sizeof(float)),
            0);
}

TEST(Kernels, FusedAttentionRoutingIsBackedByTheStageCounter) {
  // The fused kernels are the only recorders of the profiler's attention
  // stage, so its sample count says which path a forward took.
  auto& prof = obs::StageProfiler::instance();
  const bool was = prof.enabled();
  prof.set_enabled(true);
  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  ASSERT_EQ(0, ker::config().attn_fused_min_n);

  // The paper-miniature surrogate (windows of N = 64 and N = 16 at head
  // dim 8) never takes the fused path under the default config.
  util::Rng rng(36);
  core::SurrogateConfig cfg;
  cfg.H = 20;
  cfg.W = 20;
  cfg.D = 6;
  cfg.T = 3;
  core::SurrogateModel model(cfg, rng);
  model.set_training(false);
  Tensor volume = Tensor::randn({2, 3, 20, 20, 6, 4}, rng);
  Tensor surface = Tensor::randn({2, 1, 20, 20, 4}, rng);
  prof.reset();
  (void)model.forward(volume, surface);
  EXPECT_EQ(prof.snapshot(obs::Stage::kAttention).total, 0u);

  // The explicit threshold is inclusive in N.
  nn::MultiHeadSelfAttention attn(16, 2, rng);
  const int64_t N = 16;
  Tensor x = Tensor::randn({3, N, 16}, rng);
  ker::config().attn_fused_min_n = N;
  prof.reset();
  (void)attn.forward(x);
  EXPECT_GT(prof.snapshot(obs::Stage::kAttention).total, 0u);
  ker::config().attn_fused_min_n = N + 1;
  prof.reset();
  (void)attn.forward(x);
  EXPECT_EQ(prof.snapshot(obs::Stage::kAttention).total, 0u);

  prof.reset();
  prof.set_enabled(was);
}

// ---------------------------------------------------------------------------
// Fused (flash-style) attention backward
// ---------------------------------------------------------------------------

namespace {

/// Analytic gradients of sum(attention(q, k, v) * seed) through the
/// *unfused* reference chain (matmul + softmax autograd) — the ground
/// truth the fused recompute-based backward must reproduce.
struct AttnGrads {
  Tensor dq, dk, dv;
};

AttnGrads reference_attention_grads(const Tensor& q, const Tensor& k,
                                    const Tensor& v, const Tensor& mask,
                                    float scale, const Tensor& seed) {
  Tensor ql = q.detach(), kl = k.detach(), vl = v.detach();
  ql.set_requires_grad(true);
  kl.set_requires_grad(true);
  vl.set_requires_grad(true);
  reference_attention(ql, kl, vl, mask, scale).mul(seed).sum().backward();
  return {ql.grad(), kl.grad(), vl.grad()};
}

AttnGrads fused_attention_grads(const Tensor& q, const Tensor& k,
                                const Tensor& v, const Tensor& mask,
                                float scale, const Tensor& seed) {
  Tensor ql = q.detach(), kl = k.detach(), vl = v.detach();
  ql.set_requires_grad(true);
  kl.set_requires_grad(true);
  vl.set_requires_grad(true);
  nn::fused_attention(ql, kl, vl, mask, scale).mul(seed).sum().backward();
  return {ql.grad(), kl.grad(), vl.grad()};
}

}  // namespace

TEST(Kernels, FusedBackwardMatchesReferenceAcrossShapesAndHeadDims) {
  util::Rng rng(40);
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_bq = 8;
  ker::config().attn_bkv = 16;  // odd N crosses KV-block boundaries
  struct Case {
    int64_t B, h, N, d;
  };
  // Odd / non-pow2 N straddling the block sizes; head dims covering every
  // specialized instantiation (4..64) plus the runtime-d fallback (5).
  const Case cases[] = {{2, 3, 17, 4},  {1, 2, 33, 8},  {2, 1, 21, 16},
                        {1, 2, 97, 32}, {1, 1, 40, 64}, {2, 2, 19, 5}};
  for (const auto& c : cases) {
    Tensor q = Tensor::randn({c.B, c.h, c.N, c.d}, rng);
    Tensor k = Tensor::randn({c.B, c.h, c.N, c.d}, rng);
    Tensor v = Tensor::randn({c.B, c.h, c.N, c.d}, rng);
    Tensor seed = Tensor::randn({c.B, c.h, c.N, c.d}, rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(c.d));
    AttnGrads want = reference_attention_grads(q, k, v, Tensor(), scale, seed);
    AttnGrads got = fused_attention_grads(q, k, v, Tensor(), scale, seed);
    const std::string label = "N=" + std::to_string(c.N) +
                              " d=" + std::to_string(c.d);
    EXPECT_LT(coastal::testing::max_abs_diff(got.dq, want.dq), 2e-4) << label;
    EXPECT_LT(coastal::testing::max_abs_diff(got.dk, want.dk), 2e-4) << label;
    EXPECT_LT(coastal::testing::max_abs_diff(got.dv, want.dv), 2e-4) << label;
  }
}

TEST(Kernels, FusedBackwardMaskedWindowsMatchReference) {
  util::Rng rng(41);
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_bq = 4;
  ker::config().attn_bkv = 8;
  // Same shifted-window mask pattern as the forward test: group 0 is
  // block-diagonal halves, group 1 forbids a column stripe; B = rep*groups
  // with window index fastest-varying.
  const int64_t groups = 2, rep = 2, B = rep * groups, h = 2, N = 21, d = 6;
  Tensor q = Tensor::randn({B, h, N, d}, rng);
  Tensor k = Tensor::randn({B, h, N, d}, rng);
  Tensor v = Tensor::randn({B, h, N, d}, rng);
  Tensor seed = Tensor::randn({B, h, N, d}, rng);
  std::vector<float> mdata(static_cast<size_t>(groups * N * N), 0.0f);
  for (int64_t g = 0; g < groups; ++g)
    for (int64_t i = 0; i < N; ++i)
      for (int64_t j = 0; j < N; ++j)
        if ((g == 0 && (i < N / 2) != (j < N / 2)) || (g == 1 && j % 5 == 2))
          mdata[static_cast<size_t>((g * N + i) * N + j)] = -1e9f;
  Tensor mask = Tensor::from_vector({groups, N, N}, std::move(mdata));
  const float scale = 0.4f;
  AttnGrads want = reference_attention_grads(q, k, v, mask, scale, seed);
  AttnGrads got = fused_attention_grads(q, k, v, mask, scale, seed);
  EXPECT_LT(coastal::testing::max_abs_diff(got.dq, want.dq), 2e-4);
  EXPECT_LT(coastal::testing::max_abs_diff(got.dk, want.dk), 2e-4);
  EXPECT_LT(coastal::testing::max_abs_diff(got.dv, want.dv), 2e-4);
  // Masked-out keys must get gradient contributions of exactly zero from
  // the rows that exclude them (weight is exactly 0 on both paths), so no
  // NaN/garbage leaks through a -1e9 bias.
  for (int64_t dd = 0; dd < d; ++dd)
    EXPECT_TRUE(std::isfinite(got.dk.at({0, 0, 2, dd})));
}

TEST(Kernels, FusedBackwardGradcheckOddShapes) {
  util::Rng rng(42);
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_bq = 4;
  ker::config().attn_bkv = 8;
  // Numeric gradcheck straight through nn::fused_attention (forward is the
  // fused kernel on every loss evaluation, backward is the recompute
  // kernel).  Small odd shape to keep central differences cheap.
  const int64_t B = 1, h = 2, N = 11, d = 4;
  Tensor q = Tensor::randn({B, h, N, d}, rng);
  Tensor k = Tensor::randn({B, h, N, d}, rng);
  Tensor v = Tensor::randn({B, h, N, d}, rng);
  const float scale = 0.5f;
  coastal::testing::gradcheck(
      [&](const Tensor& t) {
        return nn::fused_attention(t, k, v, Tensor(), scale).mul(t).sum();
      },
      q);
  coastal::testing::gradcheck(
      [&](const Tensor& t) {
        return nn::fused_attention(q, t, v, Tensor(), scale).sum();
      },
      k);
  coastal::testing::gradcheck(
      [&](const Tensor& t) {
        return nn::fused_attention(q, k, t, Tensor(), scale).sum();
      },
      v);
}

TEST(Kernels, AttentionModuleTrainingGradcheckThroughFusedPath) {
  util::Rng rng(43);
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_fused_min_n = 1;  // force the fused training path
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::randn({2, 5, 8}, rng);
  coastal::testing::gradcheck(
      [&](const Tensor& t) { return attn.forward(t).mul(t).sum(); }, x);
}

TEST(Kernels, FusedBackwardSerialVsParallelBitwise) {
  util::Rng rng(44);
  const int64_t B = 3, h = 2, N = 70, d = 8;
  Tensor q = Tensor::randn({B, h, N, d}, rng);
  Tensor k = Tensor::randn({B, h, N, d}, rng);
  Tensor v = Tensor::randn({B, h, N, d}, rng);
  Tensor seed = Tensor::randn({B, h, N, d}, rng);
  Tensor mask;
  {
    std::vector<float> mdata(static_cast<size_t>(3 * N * N), 0.0f);
    for (size_t i = 0; i < mdata.size(); i += 7) mdata[i] = -1e9f;
    mask = Tensor::from_vector({3, N, N}, std::move(mdata));
  }
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_bq = 16;
  ker::config().attn_bkv = 32;
  ker::config().num_threads = 1;
  AttnGrads serial = fused_attention_grads(q, k, v, mask, 0.3f, seed);
  ker::config().num_threads = 8;
  ker::config().parallel_grain = 1;  // force chunked dispatch
  AttnGrads parallel = fused_attention_grads(q, k, v, mask, 0.3f, seed);
  const Tensor* s[] = {&serial.dq, &serial.dk, &serial.dv};
  const Tensor* p[] = {&parallel.dq, &parallel.dk, &parallel.dv};
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(s[i]->shape(), p[i]->shape()) << "grad " << i;
    EXPECT_EQ(std::memcmp(s[i]->raw(), p[i]->raw(),
                          static_cast<size_t>(s[i]->numel()) * sizeof(float)),
              0)
        << "serial vs parallel mismatch in grad " << i;
  }
}

TEST(Kernels, FusedTrainingPathNeverMaterializesScoreTensor) {
  // The whole point of the fused training path: the autograd node holds
  // [B, h, N] row statistics, not [B, h, N, N] scores.  Compare peak
  // allocation of a forward+backward on both paths; the unfused chain
  // materializes several N^2 tensors, the fused one none.
  util::Rng rng(45);
  const int64_t B = 2, h = 2, N = 128, d = 8;
  Tensor q = Tensor::randn({B, h, N, d}, rng);
  Tensor k = Tensor::randn({B, h, N, d}, rng);
  Tensor v = Tensor::randn({B, h, N, d}, rng);
  Tensor seed = Tensor::randn({B, h, N, d}, rng);

  auto peak_of = [&](auto&& fn) {
    tensor::reset_peak_bytes();
    const uint64_t before = tensor::alloc_stats().current_bytes;
    fn();
    return tensor::alloc_stats().peak_bytes - before;
  };
  const uint64_t peak_unfused = peak_of(
      [&] { reference_attention_grads(q, k, v, Tensor(), 0.35f, seed); });
  const uint64_t peak_fused = peak_of(
      [&] { fused_attention_grads(q, k, v, Tensor(), 0.35f, seed); });
  const uint64_t score_bytes =
      static_cast<uint64_t>(B * h * N * N) * sizeof(float);
  // The unfused chain must hold at least one score tensor at peak; the
  // fused chain must peak below a single score tensor's footprint (it
  // allocates only [B, h, N, d] tensors and the 2-float-per-row stats).
  EXPECT_GT(peak_unfused, score_bytes);
  EXPECT_LT(peak_fused, score_bytes);
  EXPECT_LT(peak_fused * 3, peak_unfused);
}

TEST(Kernels, FusedBackwardPropagatesNaN) {
  // A NaN query entry poisons a probability row on both paths; the fused
  // backward must poison exactly the gradient entries the reference
  // backward poisons — pin NaN-location equality elementwise rather than a
  // hardcoded scope.
  util::Rng rng(46);
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_bq = 8;
  ker::config().attn_bkv = 8;
  const int64_t B = 1, h = 1, N = 20, d = 4;
  Tensor q = Tensor::randn({B, h, N, d}, rng);
  Tensor k = Tensor::randn({B, h, N, d}, rng);
  Tensor v = Tensor::randn({B, h, N, d}, rng);
  Tensor seed = Tensor::ones({B, h, N, d});
  q.set({0, 0, 7, 2}, std::numeric_limits<float>::quiet_NaN());
  AttnGrads want = reference_attention_grads(q, k, v, Tensor(), 0.5f, seed);
  AttnGrads got = fused_attention_grads(q, k, v, Tensor(), 0.5f, seed);
  const Tensor* w[] = {&want.dq, &want.dk, &want.dv};
  const Tensor* g[] = {&got.dq, &got.dk, &got.dv};
  for (int t = 0; t < 3; ++t) {
    auto pw = w[t]->data();
    auto pg = g[t]->data();
    for (size_t i = 0; i < pw.size(); ++i)
      EXPECT_EQ(std::isnan(pw[i]), std::isnan(pg[i]))
          << "grad " << t << " flat index " << i;
  }
}

TEST(Kernels, CheckpointedFusedAttentionGradsMatchDirect) {
  // A checkpointed region recomputes through the same fused kernel as the
  // direct training forward, so gradients must agree bitwise — this is the
  // recompute-consistency contract that let attention stop consulting
  // inside_checkpoint_region().
  util::Rng rng(47);
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_fused_min_n = 1;  // fused even at this small N
  nn::MultiHeadSelfAttention attn(16, 2, rng);
  Tensor x = Tensor::randn({2, 40, 16}, rng);

  auto grads_of = [&](bool ckpt) {
    attn.zero_grad();
    Tensor xl = x.detach();
    xl.set_requires_grad(true);
    Tensor y = ckpt ? nn::checkpoint(
                          [&](const std::vector<Tensor>& in) {
                            return attn.forward(in[0]);
                          },
                          {xl}, attn.parameters())
                    : attn.forward(xl);
    y.mul(y).sum().backward();
    std::vector<float> flat(xl.grad().data().begin(), xl.grad().data().end());
    for (auto& p : attn.parameters()) {
      EXPECT_TRUE(p.grad().defined());
      flat.insert(flat.end(), p.grad().data().begin(), p.grad().data().end());
    }
    return flat;
  };
  std::vector<float> direct = grads_of(false);
  std::vector<float> ckpt = grads_of(true);
  ASSERT_EQ(direct.size(), ckpt.size());
  EXPECT_EQ(std::memcmp(direct.data(), ckpt.data(),
                        direct.size() * sizeof(float)),
            0)
      << "checkpointed recompute diverged from the direct fused path";
}

TEST(Kernels, FusedAttentionRejectsRecordedMaskGradientLoudly) {
  // The fused kernels treat the mask as a constant additive bias.  A mask
  // that would receive a recorded gradient must be rejected with an error
  // — even when q/k/v record nothing — never silently dropped; and the
  // module router must send graph-carrying masks down the unfused path
  // regardless of recording mode, so checkpoint initial passes and
  // recomputes stay consistent.
  util::Rng rng(49);
  const int64_t B = 1, h = 2, N = 9, d = 4;
  Tensor q = Tensor::randn({B, h, N, d}, rng);
  Tensor k = Tensor::randn({B, h, N, d}, rng);
  Tensor v = Tensor::randn({B, h, N, d}, rng);
  Tensor mask = Tensor::zeros({1, N, N});
  mask.set_requires_grad(true);
  EXPECT_THROW(nn::fused_attention(q, k, v, mask, 0.5f),
               coastal::util::CheckError);
  {
    // Under NoGrad the same call is legal (inference over trainable
    // params) and matches the reference.
    tensor::NoGradGuard ng;
    Tensor got = nn::fused_attention(q, k, v, mask, 0.5f);
    Tensor want = reference_attention(q, k, v, mask.detach(), 0.5f);
    EXPECT_LT(coastal::testing::max_abs_diff(got, want), 1e-5);
  }
  // Module routing: a graph-carrying mask takes the unfused path in both
  // recording modes — bitwise equal to a forced-unfused forward.
  coastal::testing::KernelConfigOverride guard;
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::randn({1, 40, 8}, rng);
  Tensor mask2 = Tensor::zeros({1, 40, 40});
  mask2.set_requires_grad(true);
  tensor::NoGradGuard ng;
  ker::config().attn_fused_min_n = 1;
  Tensor routed = attn.forward(x, mask2);
  ker::config().attn_fused_min_n = 1000000;
  Tensor unfused = attn.forward(x, mask2);
  ASSERT_EQ(routed.shape(), unfused.shape());
  EXPECT_EQ(std::memcmp(routed.raw(), unfused.raw(),
                        static_cast<size_t>(routed.numel()) * sizeof(float)),
            0);
}

TEST(Kernels, SoftmaxRowsPolynomialExpfStaysWithinTolerance) {
  // softmax_rows now runs the branch-free polynomial expf (rel err
  // <= ~2e-7); pin agreement against libm at double precision, including
  // large-magnitude logits, and pin the unfused-vs-fused agreement this
  // shared expf guarantees.
  util::Rng rng(48);
  Tensor x = Tensor::randn({13, 67}, rng).mul_scalar(10.0f);
  tensor::NoGradGuard ng;
  Tensor y = x.softmax_lastdim();
  for (int64_t r = 0; r < 13; ++r) {
    double mx = -1e300, denom = 0.0;
    for (int64_t c = 0; c < 67; ++c) mx = std::max(mx, (double)x.at({r, c}));
    for (int64_t c = 0; c < 67; ++c) denom += std::exp(x.at({r, c}) - mx);
    for (int64_t c = 0; c < 67; ++c)
      EXPECT_NEAR(y.at({r, c}), std::exp(x.at({r, c}) - mx) / denom, 1e-5)
          << "row " << r << " col " << c;
  }
  // -1e9-masked logits must get weight exactly 0 (flush below -104), and a
  // row poisoned by NaN stays all-NaN — same contract as libm expf.
  Tensor m = Tensor::from_vector({1, 4}, {0.0f, -1e9f, 1.0f, -1e9f});
  Tensor ym = m.softmax_lastdim();
  EXPECT_EQ(ym.at({0, 1}), 0.0f);
  EXPECT_EQ(ym.at({0, 3}), 0.0f);
  EXPECT_NEAR(ym.at({0, 0}) + ym.at({0, 2}), 1.0f, 1e-6);
  Tensor n = Tensor::from_vector(
      {1, 3}, {0.0f, std::numeric_limits<float>::quiet_NaN(), 2.0f});
  Tensor yn = n.softmax_lastdim();
  for (int64_t c = 0; c < 3; ++c) EXPECT_TRUE(std::isnan(yn.at({0, c})));
}

TEST(Kernels, MatmulGradcheckThroughBlockedKernel) {
  util::Rng rng(21);
  // Big enough to leave the naive small-GEMM path even without config
  // overrides? No — force the blocked path instead, keeping gradcheck fast.
  coastal::testing::KernelConfigOverride guard;
  ker::config().gemm_small_madds = 0;
  Tensor a = Tensor::randn({3, 4}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);
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
