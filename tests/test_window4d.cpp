/// Tests for 4-D window partitioning, the fused cyclic shift, and
/// shifted-window attention masks.

#include <gtest/gtest.h>

#include "core/window4d.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace core = coastal::core;
namespace ct = coastal::tensor;
using coastal::core::Grid4d;
using coastal::core::Window4d;
using coastal::core::WindowPlan;
using coastal::tensor::Tensor;
using coastal::testing::expect_tensor_near;
using coastal::testing::roll;
using coastal::testing::at;
using coastal::testing::set;

namespace {

/// The unfused reference: roll each axis of a channels-last
/// [B, H, W, D, T, C] map by -shift, then window-partition by reshape and
/// permute.
Tensor roll_then_partition(const Tensor& x, const Window4d& w,
                           const Window4d& shift) {
  Tensor r = x;
  for (int a = 0; a < 4; ++a)
    if (shift[static_cast<size_t>(a)] != 0)
      r = roll(r, a + 1, -shift[static_cast<size_t>(a)]);
  const ct::Shape& s = x.shape();
  const int64_t nh = s[1] / w[0], nw = s[2] / w[1], nd = s[3] / w[2],
                nt = s[4] / w[3];
  Tensor p = r.reshape({s[0], nh, w[0], nw, w[1], nd, w[2], nt, w[3], s[5]})
                 .permute({0, 1, 3, 5, 7, 2, 4, 6, 8, 9});
  return p.reshape({s[0] * nh * nw * nd * nt, w[0] * w[1] * w[2] * w[3], s[5]});
}

}  // namespace

TEST(Window4d, PartitionShape) {
  coastal::util::Rng rng(1);
  Tensor x = Tensor::randn({2, 4, 4, 2, 2, 3}, rng);
  const WindowPlan plan({4, 4, 2, 2}, {2, 2, 2, 2}, {0, 0, 0, 0});
  Tensor tokens = plan.partition(x);
  // nW = 2*2*1*1 = 4; N = 16.
  EXPECT_EQ(tokens.shape(), (ct::Shape{2 * 4, 16, 3}));
}

TEST(Window4d, PartitionReverseRoundTrip) {
  coastal::util::Rng rng(2);
  Tensor x = Tensor::randn({1, 4, 6, 2, 4, 5}, rng);
  for (const Window4d shift : {Window4d{0, 0, 0, 0}, Window4d{1, 1, 1, 1}}) {
    const WindowPlan plan({4, 6, 2, 4}, {2, 3, 2, 2}, shift);
    expect_tensor_near(plan.reverse(plan.partition(x)), x, 0.0);
  }
}

TEST(Window4d, RejectsIndivisibleWindow) {
  EXPECT_THROW(WindowPlan({5, 4, 2, 2}, {2, 2, 2, 2}, {0, 0, 0, 0}),
               coastal::util::CheckError);
}

TEST(Window4d, RejectsAFeatureMapOfAnotherGrid) {
  const WindowPlan plan({4, 4, 2, 2}, {2, 2, 2, 2}, {0, 0, 0, 0});
  EXPECT_THROW(plan.partition(Tensor::zeros({1, 4, 4, 2, 4, 3})),
               coastal::util::CheckError);
}

TEST(Window4d, WindowContentIsSpatiallyContiguous) {
  // Build a tensor whose value encodes its (h, w, d, t) coordinate and
  // check that one window holds exactly one contiguous block.
  const int64_t H = 4, W = 4, D = 2, T = 2;
  Tensor x = Tensor::zeros({1, H, W, D, T, 1});
  for (int64_t h = 0; h < H; ++h)
    for (int64_t w = 0; w < W; ++w)
      for (int64_t d = 0; d < D; ++d)
        for (int64_t t = 0; t < T; ++t)
          set(x, {0, h, w, d, t, 0},
                static_cast<float>(((h * W + w) * D + d) * T + t));
  Tensor tokens =
      WindowPlan({H, W, D, T}, {2, 2, 2, 2}, {0, 0, 0, 0}).partition(x);
  // First window = h in [0,2), w in [0,2), all d, t.
  // Its first token is (0,0,0,0) -> 0; last is (1,1,1,1).
  EXPECT_EQ(at(tokens, {0, 0, 0}), 0.0f);
  EXPECT_EQ(at(tokens, {0, 15, 0}),
            static_cast<float>(((1 * W + 1) * D + 1) * T + 1));
}

TEST(Window4d, FusedShiftPartitionEqualsRollThenPermuteBitwise) {
  coastal::util::Rng rng(3);
  Tensor x = Tensor::randn({2, 4, 6, 4, 4, 3}, rng);
  const Window4d w{2, 3, 2, 2};
  for (const Window4d shift :
       {Window4d{0, 0, 0, 0}, Window4d{1, 0, 0, 0}, Window4d{0, 1, 1, 0},
        Window4d{1, 1, 1, 1}, Window4d{1, 2, 1, 1}}) {
    const WindowPlan plan({4, 6, 4, 4}, w, shift);
    Tensor fused = plan.partition(x);
    Tensor ref = roll_then_partition(x, w, shift);
    ASSERT_EQ(fused.shape(), ref.shape());
    for (int64_t i = 0; i < ref.numel(); ++i)
      ASSERT_EQ(fused.raw()[i], ref.raw()[i]) << "shift " << shift[0]
                                              << shift[1] << shift[2]
                                              << shift[3] << " idx " << i;
    // Reverse is the exact inverse, unshift included.
    Tensor back = plan.reverse(ref);
    for (int64_t i = 0; i < x.numel(); ++i)
      ASSERT_EQ(back.raw()[i], x.raw()[i]) << i;
  }
}

TEST(Window4d, PartitionGradientIsTheReverseGather) {
  // d/dx Σ partition(x) · g = reverse(g): a pure permutation backward.
  coastal::util::Rng rng(4);
  Tensor x = Tensor::randn({1, 4, 4, 2, 2, 2}, rng);
  x.set_requires_grad(true);
  const WindowPlan plan({4, 4, 2, 2}, {2, 2, 2, 2}, {1, 1, 0, 1});
  Tensor g = Tensor::randn({4, 16, 2}, rng);
  plan.partition(x).mul(g).sum().backward();
  expect_tensor_near(x.grad(), plan.reverse(g), 0.0);
}

TEST(Window4d, PlanMaskOnlyWhenShifted) {
  EXPECT_FALSE(
      WindowPlan({4, 4, 2, 2}, {2, 2, 2, 2}, {0, 0, 0, 0}).mask().defined());
  const WindowPlan shifted({4, 4, 2, 2}, {2, 2, 2, 2}, {1, 1, 0, 0});
  ASSERT_TRUE(shifted.mask().defined());
  expect_tensor_near(
      shifted.mask(),
      core::shifted_window_mask({4, 4, 2, 2}, {2, 2, 2, 2}, {1, 1, 0, 0}),
      0.0);
}

TEST(Window4d, MaskZeroWhenNoShift) {
  Tensor m = core::shifted_window_mask({4, 4, 2, 2}, {2, 2, 2, 2},
                                       {0, 0, 0, 0});
  for (float v : m.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Window4d, MaskShape) {
  Tensor m = core::shifted_window_mask({4, 4, 2, 2}, {2, 2, 2, 2},
                                       {1, 1, 0, 0});
  // nW = (4/2) * (4/2) * (2/2) * (2/2) = 4; N = 16.
  EXPECT_EQ(m.shape(), (ct::Shape{4, 16, 16}));
}

TEST(Window4d, MaskIsSymmetricAndZeroDiagonal) {
  Tensor m = core::shifted_window_mask({8, 4, 2, 4}, {4, 4, 2, 2},
                                       {2, 2, 1, 1});
  const int64_t nW = m.shape()[0], N = m.shape()[1];
  for (int64_t b = 0; b < nW; ++b)
    for (int64_t i = 0; i < N; ++i) {
      EXPECT_EQ(at(m, {b, i, i}), 0.0f);
      for (int64_t j = i + 1; j < N; ++j)
        EXPECT_EQ(at(m, {b, i, j}), at(m, {b, j, i}));
    }
}

TEST(Window4d, OnlyBoundaryWindowsAreMasked) {
  // 1-D-like case: shift only along H.  Windows not touching the wrap
  // boundary must be fully open.
  Tensor m = core::shifted_window_mask({8, 2, 2, 2}, {2, 2, 2, 2},
                                       {1, 0, 0, 0});
  const int64_t N = m.shape()[1];
  // Window layout: (wh, ww, wd, wt) row-major with wh slowest; windows
  // with wh < 3 are interior along H.  Per wh group there are
  // nw * nd * nt windows.
  const int64_t windows_per_h = (2 / 2) * (2 / 2) * (2 / 2);
  for (int64_t b = 0; b < 3 * windows_per_h; ++b)
    for (int64_t i = 0; i < N; ++i)
      for (int64_t j = 0; j < N; ++j)
        ASSERT_EQ(at(m, {b, i, j}), 0.0f) << "window " << b;
  // The last row of windows (wrap boundary) must mask something.
  double masked = 0;
  for (int64_t b = 3 * windows_per_h; b < m.shape()[0]; ++b)
    for (int64_t i = 0; i < N; ++i)
      for (int64_t j = 0; j < N; ++j)
        if (at(m, {b, i, j}) < -1.0f) ++masked;
  EXPECT_GT(masked, 0);
}

TEST(Window4d, ShiftedAttentionRespectsOriginalNeighborhoods) {
  // End-to-end semantic check of the Swin trick in 1-D (H only):
  // after shifting by s and masking, a token may only see tokens that were
  // within the same shifted window in the *original* sequence.
  const int64_t H = 8;
  const Grid4d grid{H, 2, 2, 2};
  const Window4d win{4, 2, 2, 2};
  const Window4d shift{2, 0, 0, 0};
  Tensor mask = core::shifted_window_mask(grid, win, shift);

  // Token h of the rolled grid corresponds to original position
  // (h + shift) mod H.  Within the last window, original positions from
  // the tail may not attend to wrapped-around head positions.
  const int64_t per_h = 2 * 2 * 2;  // tokens per h within a window
  const int64_t last_win = mask.shape()[0] - 1;
  // rolled h = 4..7 -> original 6, 7, 0, 1.
  auto blocked = [&](int64_t hi, int64_t hj) {
    return at(mask, {last_win, hi * per_h, hj * per_h}) < -1.0f;
  };
  EXPECT_FALSE(blocked(0, 1));  // orig 6 <-> 7: neighbours
  EXPECT_FALSE(blocked(2, 3));  // orig 0 <-> 1: neighbours
  EXPECT_TRUE(blocked(0, 2));   // orig 6 <-> 0: wrapped, must be masked
  EXPECT_TRUE(blocked(1, 3));   // orig 7 <-> 1: wrapped

  // And the plan's gather puts exactly those original positions in the
  // last window: slot hi of it reads original row (4 + hi + 2) mod 8.
  Tensor x = Tensor::zeros({1, H, 2, 2, 2, 1});
  for (int64_t h = 0; h < H; ++h)
    for (int64_t i = 0; i < 8; ++i) x.raw()[h * 8 + i] = static_cast<float>(h);
  Tensor tokens = WindowPlan(grid, win, shift).partition(x);
  for (int64_t hi = 0; hi < 4; ++hi)
    EXPECT_EQ(at(tokens, {last_win, hi * per_h, 0}),
              static_cast<float>((4 + hi + 2) % H));
}
