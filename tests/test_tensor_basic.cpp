/// Unit tests for tensor creation, accessors, and shape ops (no autograd).

#include <gtest/gtest.h>

#include "tensor/tensor.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ct = coastal::tensor;
using coastal::tensor::Tensor;
using coastal::testing::expect_tensor_near;
using coastal::testing::arange;
using coastal::testing::at;
using coastal::testing::roll;
using coastal::testing::set;

TEST(TensorBasic, ZerosOnesFull) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);
  Tensor o = Tensor::ones({4});
  for (float v : o.data()) EXPECT_EQ(v, 1.0f);
  Tensor f = Tensor::full({2, 2}, 3.5f);
  for (float v : f.data()) EXPECT_EQ(v, 3.5f);
}

TEST(TensorBasic, FromVectorAndAt) {
  Tensor t = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(at(t, {0, 0}), 1.0f);
  EXPECT_EQ(at(t, {0, 2}), 3.0f);
  EXPECT_EQ(at(t, {1, 0}), 4.0f);
  EXPECT_EQ(at(t, {1, 2}), 6.0f);
  set(t, {1, 1}, 42.0f);
  EXPECT_EQ(at(t, {1, 1}), 42.0f);
}

TEST(TensorBasic, FromVectorRejectsWrongSize) {
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1, 2, 3}),
               coastal::util::CheckError);
}

TEST(TensorBasic, ItemRequiresScalar) {
  EXPECT_THROW(Tensor::zeros({2}).item(), coastal::util::CheckError);
  EXPECT_EQ(Tensor::full({1}, 7.0f).item(), 7.0f);
}

TEST(TensorBasic, RandnStatistics) {
  coastal::util::Rng rng(7);
  Tensor t = Tensor::randn({10000}, rng, 2.0f);
  double mean = 0;
  for (float v : t.data()) mean += v;
  mean /= 10000;
  double var = 0;
  for (float v : t.data()) var += (v - mean) * (v - mean);
  var /= 10000;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(TensorBasic, ReshapeInfersDim) {
  Tensor t = arange(12).reshape({3, -1});
  EXPECT_EQ(t.shape(), (ct::Shape{3, 4}));
  EXPECT_EQ(at(t, {2, 3}), 11.0f);
}

TEST(TensorBasic, ReshapeRejectsBadNumel) {
  EXPECT_THROW(arange(12).reshape({5, 3}), coastal::util::CheckError);
}

TEST(TensorBasic, ReshapeInferringNextToAZeroDimThrows) {
  // -1 beside a zero-sized dimension could be anything (torch refuses it
  // too); it used to divide by zero.
  const Tensor empty = Tensor::zeros({0, 4});
  EXPECT_THROW(empty.reshape({0, -1}), coastal::util::CheckError);
  EXPECT_THROW(Tensor::zeros({2, 0}).reshape({-1, 0}),
               coastal::util::CheckError);
  EXPECT_EQ(empty.reshape({-1, 4}).shape(), (ct::Shape{0, 4}));
  EXPECT_EQ(empty.reshape({2, 0, 2}).shape(), (ct::Shape{2, 0, 2}));
}

TEST(TensorBasic, ReshapeOfASoleTemporaryRelabelsWithoutCopying) {
  Tensor t = arange(12);
  const float* buf = t.raw();
  Tensor r = std::move(t).reshape({3, -1});
  EXPECT_EQ(r.raw(), buf);
  EXPECT_EQ(r.shape(), (ct::Shape{3, 4}));
  EXPECT_EQ(at(r, {2, 1}), 9.0f);

  // A second handle, or a graph, keeps the copying reshape.
  Tensor shared = r;
  Tensor copied = std::move(r).reshape({12});
  EXPECT_NE(copied.raw(), buf);
  EXPECT_EQ(shared.shape(), (ct::Shape{3, 4}));
  Tensor leaf = arange(6);
  leaf.set_requires_grad(true);
  const float* leaf_buf = leaf.raw();
  Tensor tracked = std::move(leaf).reshape({2, 3});
  EXPECT_NE(tracked.raw(), leaf_buf);
  EXPECT_TRUE(tracked.has_grad_fn());
}

TEST(TensorBasic, PermuteTransposes) {
  Tensor t = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor p = t.permute({1, 0});
  EXPECT_EQ(p.shape(), (ct::Shape{3, 2}));
  EXPECT_EQ(at(p, {0, 0}), 1.0f);
  EXPECT_EQ(at(p, {0, 1}), 4.0f);
  EXPECT_EQ(at(p, {2, 1}), 6.0f);
}

TEST(TensorBasic, Permute3d) {
  Tensor t = arange(24).reshape({2, 3, 4});
  Tensor p = t.permute({2, 0, 1});
  EXPECT_EQ(p.shape(), (ct::Shape{4, 2, 3}));
  // p[d, a, b] == t[a, b, d]
  EXPECT_EQ(at(p, {1, 1, 2}), at(t, {1, 2, 1}));
  EXPECT_EQ(at(p, {3, 0, 0}), at(t, {0, 0, 3}));
}

TEST(TensorBasic, SliceMiddleAxis) {
  Tensor t = arange(24).reshape({2, 3, 4});
  Tensor s = t.slice(1, 1, 2);
  EXPECT_EQ(s.shape(), (ct::Shape{2, 2, 4}));
  EXPECT_EQ(at(s, {0, 0, 0}), at(t, {0, 1, 0}));
  EXPECT_EQ(at(s, {1, 1, 3}), at(t, {1, 2, 3}));
}

TEST(TensorBasic, SliceNegativeAxis) {
  Tensor t = arange(6).reshape({2, 3});
  Tensor s = t.slice(-1, 0, 1);
  EXPECT_EQ(s.shape(), (ct::Shape{2, 1}));
  EXPECT_EQ(at(s, {1, 0}), 3.0f);
}

TEST(TensorBasic, SliceOutOfRangeThrows) {
  EXPECT_THROW(arange(6).reshape({2, 3}).slice(1, 2, 2),
               coastal::util::CheckError);
}

// The reference roll the fused window shift is checked against.
TEST(TensorBasic, RollWrapsAround) {
  Tensor t = arange(4);
  Tensor r = roll(t, 0, 1);
  EXPECT_EQ(r.data()[0], 3.0f);
  EXPECT_EQ(r.data()[1], 0.0f);
  EXPECT_EQ(r.data()[3], 2.0f);
  // Negative shift inverts.
  expect_tensor_near(roll(r, 0, -1), t, 0.0);
}

TEST(TensorBasic, RollOnAxis0Of2d) {
  Tensor t = Tensor::from_vector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor r = roll(t, 0, 1);
  EXPECT_EQ(at(r, {0, 0}), 5.0f);
  EXPECT_EQ(at(r, {1, 0}), 1.0f);
  EXPECT_EQ(at(r, {2, 1}), 4.0f);
}

TEST(TensorBasic, ConcatAxis0) {
  Tensor a = Tensor::from_vector({1, 2}, {1, 2});
  Tensor b = Tensor::from_vector({2, 2}, {3, 4, 5, 6});
  Tensor c = ct::concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (ct::Shape{3, 2}));
  EXPECT_EQ(at(c, {0, 1}), 2.0f);
  EXPECT_EQ(at(c, {2, 0}), 5.0f);
}

TEST(TensorBasic, ConcatLastAxis) {
  Tensor a = Tensor::from_vector({2, 1}, {1, 2});
  Tensor b = Tensor::from_vector({2, 2}, {3, 4, 5, 6});
  Tensor c = ct::concat({a, b}, -1);
  EXPECT_EQ(c.shape(), (ct::Shape{2, 3}));
  EXPECT_EQ(at(c, {0, 0}), 1.0f);
  EXPECT_EQ(at(c, {0, 1}), 3.0f);
  EXPECT_EQ(at(c, {1, 2}), 6.0f);
}

TEST(TensorBasic, ConcatShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 2});
  Tensor b = Tensor::zeros({3, 3});
  EXPECT_THROW(ct::concat({a, b}, 0), coastal::util::CheckError);
}

TEST(TensorBasic, BroadcastAdd) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3}, {10, 20, 30});
  Tensor c = a.add(b);
  EXPECT_EQ(at(c, {0, 0}), 11.0f);
  EXPECT_EQ(at(c, {1, 2}), 36.0f);
}

TEST(TensorBasic, BroadcastIncompatibleThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({2, 4});
  EXPECT_THROW(a.add(b), coastal::util::CheckError);
}

TEST(TensorBasic, SumToReducesBroadcastAxes) {
  Tensor g = Tensor::ones({2, 3});
  Tensor r = g.sum_to({3});
  EXPECT_EQ(r.shape(), (ct::Shape{3}));
  for (float v : r.data()) EXPECT_EQ(v, 2.0f);
  Tensor r2 = g.sum_to({2, 1});
  EXPECT_EQ(r2.shape(), (ct::Shape{2, 1}));
  for (float v : r2.data()) EXPECT_EQ(v, 3.0f);
}

TEST(TensorBasic, EmptyShapesThroughSumToBroadcastAndBatchedMatmul) {
  // An empty input sums to zeros; an empty output is left empty.
  Tensor r = Tensor::zeros({0, 3}).sum_to({3});
  EXPECT_EQ(r.shape(), (ct::Shape{3}));
  for (float v : r.data()) EXPECT_EQ(v, 0.0f);
  Tensor r1 = Tensor::zeros({4, 0, 3}).sum_to({1, 1, 3});
  EXPECT_EQ(r1.shape(), (ct::Shape{1, 1, 3}));
  for (float v : r1.data()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(Tensor::zeros({2, 0}).sum_to({0}).numel(), 0);
  Tensor s = Tensor::zeros({4, 0, 3}).sum_axis(1, /*keepdim=*/true);
  EXPECT_EQ(s.shape(), (ct::Shape{4, 1, 3}));
  for (float v : s.data()) EXPECT_EQ(v, 0.0f);

  // The sum's backward broadcasts the seed onto the empty shape.
  Tensor x = Tensor::zeros({0, 3});
  x.set_requires_grad(true);
  x.sum().backward();
  ASSERT_TRUE(x.grad().defined());
  EXPECT_EQ(x.grad().shape(), (ct::Shape{0, 3}));

  // A batched matmul over an empty batch, forward and backward: the
  // broadcast operand's gradient is an empty sum.
  Tensor a = Tensor::zeros({0, 2, 3});
  a.set_requires_grad(true);
  Tensor b = Tensor::ones({3, 4});
  b.set_requires_grad(true);
  Tensor c = a.matmul(b);
  EXPECT_EQ(c.shape(), (ct::Shape{0, 2, 4}));
  c.sum().backward();
  EXPECT_EQ(a.grad().shape(), (ct::Shape{0, 2, 3}));
  ASSERT_EQ(b.grad().shape(), (ct::Shape{3, 4}));
  for (float v : b.grad().data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorBasic, Matmul2d) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = a.matmul(b);
  EXPECT_EQ(c.shape(), (ct::Shape{2, 2}));
  EXPECT_EQ(at(c, {0, 0}), 58.0f);
  EXPECT_EQ(at(c, {0, 1}), 64.0f);
  EXPECT_EQ(at(c, {1, 0}), 139.0f);
  EXPECT_EQ(at(c, {1, 1}), 154.0f);
}

TEST(TensorBasic, MatmulBatchBroadcast) {
  // [2, 2, 3] x [3, 2] broadcasts the second operand over the batch.
  Tensor a = arange(12).reshape({2, 2, 3});
  Tensor b = Tensor::from_vector({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor c = a.matmul(b);
  EXPECT_EQ(c.shape(), (ct::Shape{2, 2, 2}));
  // Row [0,1,2] -> [0+2, 1+2]
  EXPECT_EQ(at(c, {0, 0, 0}), 2.0f);
  EXPECT_EQ(at(c, {0, 0, 1}), 3.0f);
  // Row [9,10,11] -> [9+11, 10+11]
  EXPECT_EQ(at(c, {1, 1, 0}), 20.0f);
  EXPECT_EQ(at(c, {1, 1, 1}), 21.0f);
}

TEST(TensorBasic, MatmulInnerMismatchThrows) {
  EXPECT_THROW(Tensor::zeros({2, 3}).matmul(Tensor::zeros({4, 2})),
               coastal::util::CheckError);
}

TEST(TensorBasic, SumAxisAndKeepdim) {
  Tensor t = arange(6).reshape({2, 3});
  Tensor s0 = t.sum_axis(0);
  EXPECT_EQ(s0.shape(), (ct::Shape{3}));
  EXPECT_EQ(s0.data()[0], 3.0f);
  EXPECT_EQ(s0.data()[2], 7.0f);
  Tensor s1k = t.sum_axis(1, true);
  EXPECT_EQ(s1k.shape(), (ct::Shape{2, 1}));
  EXPECT_EQ(s1k.data()[0], 3.0f);
  EXPECT_EQ(s1k.data()[1], 12.0f);
}

TEST(TensorBasic, MeanAxis) {
  Tensor t = Tensor::from_vector({2, 3}, {1, 5, 3, 4, 2, 6});
  EXPECT_FLOAT_EQ(t.mean_axis(1).data()[0], 3.0f);
  EXPECT_FLOAT_EQ(t.mean_axis(1).data()[1], 4.0f);
}

TEST(TensorBasic, SoftmaxRowsSumToOne) {
  coastal::util::Rng rng(3);
  Tensor t = Tensor::randn({4, 7}, rng, 3.0f);
  Tensor s = t.softmax_lastdim();
  for (int r = 0; r < 4; ++r) {
    double sum = 0;
    for (int c = 0; c < 7; ++c) sum += at(s, {r, c});
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(TensorBasic, SoftmaxIsShiftInvariant) {
  Tensor t = Tensor::from_vector({1, 3}, {1, 2, 3});
  Tensor shifted = t.add_scalar(100.0f);
  expect_tensor_near(t.softmax_lastdim(), shifted.softmax_lastdim(), 1e-6);
}

TEST(TensorBasic, TransposeLast) {
  Tensor t = arange(6).reshape({1, 2, 3});
  Tensor tt = t.transpose_last();
  EXPECT_EQ(tt.shape(), (ct::Shape{1, 3, 2}));
  EXPECT_EQ(at(tt, {0, 2, 1}), at(t, {0, 1, 2}));
}

TEST(TensorBasic, AllocStatsTrackPeak) {
  const auto before = ct::alloc_stats();
  {
    Tensor big = Tensor::zeros({1024, 1024});  // 4 MB
    const auto during = ct::alloc_stats();
    EXPECT_GE(during.current_bytes, before.current_bytes + 4 * 1024 * 1024);
  }
  const auto after = ct::alloc_stats();
  EXPECT_LT(after.current_bytes, before.current_bytes + 4 * 1024 * 1024);
  EXPECT_GE(after.peak_bytes, before.current_bytes + 4 * 1024 * 1024);
}
