/// Numeric gradient checks for every differentiable tensor op, plus
/// graph-mechanics tests (accumulation, detach, no-grad mode).

#include <gtest/gtest.h>

#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ct = coastal::tensor;
using coastal::tensor::Tensor;
using coastal::testing::gradcheck;
using coastal::testing::arange;

namespace {
Tensor rand_tensor(const ct::Shape& shape, uint64_t seed, float scale = 1.0f) {
  coastal::util::Rng rng(seed);
  return Tensor::randn(shape, rng, scale);
}
}  // namespace

TEST(Autograd, AddBroadcast) {
  Tensor b = rand_tensor({3}, 2);
  gradcheck([&](const Tensor& x) { return x.add(b).sum(); },
            rand_tensor({2, 3}, 1));
  // And gradient w.r.t. the broadcast side.
  Tensor a = rand_tensor({2, 3}, 1);
  gradcheck([&](const Tensor& x) { return a.add(x).mul(a).sum(); },
            rand_tensor({3}, 2));
}

TEST(Autograd, SubMulDiv) {
  Tensor b = rand_tensor({2, 3}, 5).add_scalar(3.0f);  // keep away from 0
  gradcheck([&](const Tensor& x) { return x.sub(b).mul(x).sum(); },
            rand_tensor({2, 3}, 6));
  gradcheck([&](const Tensor& x) { return b.sub(x).mul(x).sum(); },
            rand_tensor({2, 3}, 10));
  gradcheck([&](const Tensor& x) { return x.div(b).sum(); },
            rand_tensor({2, 3}, 7));
  Tensor a = rand_tensor({2, 3}, 8);
  gradcheck([&](const Tensor& x) { return a.div(x.add_scalar(4.0f)).sum(); },
            rand_tensor({2, 3}, 9));
}

TEST(Autograd, UnaryOps) {
  gradcheck([](const Tensor& x) { return x.add_scalar(4.0f).sqrt().sum(); },
            rand_tensor({8}, 12, 0.5f));
  gradcheck([](const Tensor& x) { return x.gelu().sum(); },
            rand_tensor({8}, 15));
}

TEST(Autograd, Reductions) {
  gradcheck([](const Tensor& x) { return x.mean(); }, rand_tensor({3, 4}, 18));
  gradcheck([](const Tensor& x) { return x.sum_axis(0).mul(x.sum_axis(0)).sum(); },
            rand_tensor({3, 4}, 19));
  gradcheck([](const Tensor& x) { return x.mean_axis(1, true).mul(x).sum(); },
            rand_tensor({3, 4}, 20));
}

TEST(Autograd, Matmul) {
  Tensor b = rand_tensor({4, 2}, 22);
  gradcheck([&](const Tensor& x) { return x.matmul(b).sum(); },
            rand_tensor({3, 4}, 21));
  Tensor a = rand_tensor({3, 4}, 23);
  gradcheck([&](const Tensor& x) { return a.matmul(x).mul(a.matmul(x)).sum(); },
            rand_tensor({4, 2}, 24));
}

TEST(Autograd, MatmulBatchedWithBroadcast) {
  Tensor b = rand_tensor({4, 2}, 26);
  gradcheck([&](const Tensor& x) { return x.matmul(b).sum(); },
            rand_tensor({2, 3, 4}, 25));
  Tensor a = rand_tensor({2, 3, 4}, 27);
  gradcheck([&](const Tensor& x) { return a.matmul(x).sum(); },
            rand_tensor({4, 2}, 28));
}

TEST(Autograd, ShapeOps) {
  gradcheck([](const Tensor& x) {
    return x.reshape({6}).mul(arange(6)).sum();
  }, rand_tensor({2, 3}, 29));
  gradcheck([](const Tensor& x) {
    return x.permute({1, 0}).mul(rand_tensor({3, 2}, 30)).sum();
  }, rand_tensor({2, 3}, 31));
  gradcheck([](const Tensor& x) { return x.slice(1, 1, 2).sum(); },
            rand_tensor({2, 4}, 32));
}

TEST(Autograd, Concat) {
  Tensor b = rand_tensor({2, 2}, 37);
  Tensor w = rand_tensor({2, 5}, 38);
  gradcheck([&](const Tensor& x) {
    return ct::concat({x, b}, 1).mul(w).sum();
  }, rand_tensor({2, 3}, 39));
}

TEST(Autograd, Softmax) {
  Tensor w = rand_tensor({3, 5}, 40);
  gradcheck([&](const Tensor& x) {
    return x.softmax_lastdim().mul(w).sum();
  }, rand_tensor({3, 5}, 41));
}

TEST(Autograd, LayerNorm) {
  Tensor gamma = rand_tensor({6}, 42).add_scalar(1.5f);
  Tensor beta = rand_tensor({6}, 43);
  Tensor w = rand_tensor({4, 6}, 44);
  gradcheck([&](const Tensor& x) {
    return x.layer_norm(gamma, beta).mul(w).sum();
  }, rand_tensor({4, 6}, 45));
}

TEST(Autograd, LayerNormParamGrads) {
  Tensor x = rand_tensor({4, 6}, 46);
  Tensor w = rand_tensor({4, 6}, 47);
  Tensor beta = Tensor::zeros({6});
  gradcheck([&](const Tensor& gamma) {
    return x.layer_norm(gamma, beta).mul(w).sum();
  }, rand_tensor({6}, 48).add_scalar(1.0f));
  Tensor gamma = Tensor::ones({6});
  gradcheck([&](const Tensor& b) {
    return x.layer_norm(gamma, b).mul(w).sum();
  }, rand_tensor({6}, 49));
}

TEST(Autograd, MseLoss) {
  Tensor target = rand_tensor({3, 3}, 50);
  gradcheck([&](const Tensor& x) { return ct::mse_loss(x, target); },
            rand_tensor({3, 3}, 51));
}

TEST(Autograd, GradAccumulatesAcrossBackwards) {
  Tensor x = Tensor::ones({3});
  x.set_requires_grad(true);
  x.mul_scalar(2.0f).sum().backward();
  x.mul_scalar(3.0f).sum().backward();
  for (float g : x.grad().data()) EXPECT_FLOAT_EQ(g, 5.0f);
  x.zero_grad();
  EXPECT_FALSE(x.grad().defined());
}

TEST(Autograd, DiamondGraphSumsBothPaths) {
  // y = x*x + x*x should give dy/dx = 4x.
  Tensor x = Tensor::from_vector({2}, {3.0f, -1.0f});
  x.set_requires_grad(true);
  Tensor a = x.mul(x);
  a.add(a).sum().backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 12.0f);
  EXPECT_FLOAT_EQ(x.grad().data()[1], -4.0f);
}

TEST(Autograd, ReusedTensorAccumulates) {
  Tensor x = Tensor::from_vector({1}, {2.0f});
  x.set_requires_grad(true);
  // y = x^3 expressed as x*x*x.
  x.mul(x).mul(x).sum().backward();
  EXPECT_NEAR(x.grad().item(), 12.0f, 1e-4);
}

TEST(Autograd, NoGradGuardBlocksRecording) {
  Tensor x = Tensor::ones({2});
  x.set_requires_grad(true);
  ct::NoGradGuard ng;
  Tensor y = x.mul_scalar(2.0f);
  EXPECT_FALSE(y.has_grad_fn());
}

TEST(Autograd, DetachCutsGraph) {
  Tensor x = Tensor::ones({2});
  x.set_requires_grad(true);
  Tensor y = x.mul_scalar(2.0f).detach();
  EXPECT_FALSE(y.has_grad_fn());
  y.mul_scalar(3.0f).sum().backward();  // must not reach x
  EXPECT_FALSE(x.grad().defined());
}

TEST(Autograd, BackwardOnLeafAccumulatesSeed) {
  Tensor x = Tensor::ones({3});
  x.set_requires_grad(true);
  x.backward();
  for (float g : x.grad().data()) EXPECT_FLOAT_EQ(g, 1.0f);
}

TEST(Autograd, RequiresGradOnNonLeafThrows) {
  Tensor x = Tensor::ones({2});
  x.set_requires_grad(true);
  Tensor y = x.mul_scalar(2.0f);
  EXPECT_THROW(y.set_requires_grad(true), coastal::util::CheckError);
}

TEST(Autograd, CustomOpBackward) {
  // A custom "times 3" op with a hand-written backward.
  Tensor x = Tensor::from_vector({2}, {1.0f, 2.0f});
  x.set_requires_grad(true);
  Tensor y = ct::custom_op({2}, ct::Storage::adopt({3.0f, 6.0f}), "times3", {x},
                           [](const Tensor& g) -> std::vector<Tensor> {
                             return {g.mul_scalar(3.0f)};
                           });
  y.sum().backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 3.0f);
  EXPECT_FLOAT_EQ(x.grad().data()[1], 3.0f);
}

// The softmax / layer-norm kernels are parallel and cache-blocked; their
// gradients must be unchanged when the parallel path is forced (chunked
// dispatch across rows) — a regression guard for the kernel-layer rewrite.
TEST(Autograd, SoftmaxAndLayerNormGradsUnchangedUnderParallelKernels) {
  coastal::testing::KernelConfigOverride guard;
  ct::kernels::config().num_threads = 8;
  ct::kernels::config().parallel_grain = 1;

  Tensor w = rand_tensor({6, 9}, 31);
  gradcheck([&](const Tensor& x) { return x.softmax_lastdim().mul(w).sum(); },
            rand_tensor({6, 9}, 32));
  Tensor gamma = rand_tensor({9}, 33);
  Tensor beta = rand_tensor({9}, 34);
  gradcheck(
      [&](const Tensor& x) {
        return x.layer_norm(gamma, beta).mul(w).sum();
      },
      rand_tensor({6, 9}, 35));
  gradcheck(
      [&](const Tensor& g) {
        return rand_tensor({6, 9}, 36).layer_norm(g, beta).mul(w).sum();
      },
      gamma);
}
