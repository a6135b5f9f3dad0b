/// Parameterized property suites (TEST_P) over configuration grids:
/// invariants that must hold for *every* point of the swept space.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/window4d.hpp"
#include "ocean/bathymetry.hpp"
#include "ocean/parallel_driver.hpp"
#include "tensor/half.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ct = coastal::tensor;
namespace core = coastal::core;
namespace ocean = coastal::ocean;
using coastal::tensor::Tensor;
using coastal::testing::at;
using coastal::testing::roll;

// ---------------------------------------------------------------------------
// Window partition/reverse is the identity for every (dims, window) combo.
// ---------------------------------------------------------------------------

using WindowCase = std::tuple<int64_t, int64_t, int64_t, int64_t,  // H W D T
                              int64_t, int64_t, int64_t, int64_t>; // window

class WindowRoundTrip : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowRoundTrip, PartitionReverseIdentity) {
  auto [H, W, D, T, mh, mw, md, mt] = GetParam();
  coastal::util::Rng rng(static_cast<uint64_t>(H * 131 + mh));
  Tensor x = Tensor::randn({2, H, W, D, T, 3}, rng);
  const core::Window4d win{mh, mw, md, mt};
  const core::Window4d shift{mh / 2, mw / 2, md / 2, mt / 2};
  for (const core::Window4d s : {core::Window4d{0, 0, 0, 0}, shift}) {
    const core::WindowPlan plan({H, W, D, T}, win, s);
    coastal::testing::expect_tensor_near(plan.reverse(plan.partition(x)), x,
                                         0.0);
  }
}

TEST_P(WindowRoundTrip, ShiftMaskIsBlockStructured) {
  auto [H, W, D, T, mh, mw, md, mt] = GetParam();
  const core::Window4d win{mh, mw, md, mt};
  const core::Window4d shift{mh / 2, mw / 2, md / 2, mt / 2};
  Tensor m = core::shifted_window_mask({H, W, D, T}, win, shift);
  // Every entry is 0 or -1e9, diagonal always 0.
  const int64_t N = m.shape()[1];
  for (int64_t b = 0; b < m.shape()[0]; ++b)
    for (int64_t i = 0; i < N; ++i) {
      ASSERT_EQ(at(m, {b, i, i}), 0.0f);
      for (int64_t j = 0; j < N; ++j) {
        const float v = at(m, {b, i, j});
        ASSERT_TRUE(v == 0.0f || v == -1e9f);
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WindowRoundTrip,
    ::testing::Values(WindowCase{4, 4, 2, 2, 2, 2, 2, 2},
                      WindowCase{8, 4, 4, 2, 4, 2, 2, 2},
                      WindowCase{6, 6, 2, 4, 3, 2, 1, 2},
                      WindowCase{4, 8, 2, 4, 4, 4, 2, 2},
                      WindowCase{2, 2, 2, 2, 2, 2, 2, 2},
                      WindowCase{8, 8, 4, 4, 2, 4, 2, 4}));

// ---------------------------------------------------------------------------
// FP16 round-trip properties over magnitude decades.
// ---------------------------------------------------------------------------

class HalfProperty : public ::testing::TestWithParam<double> {};

TEST_P(HalfProperty, RelativeErrorWithinUlp) {
  const double scale = GetParam();
  coastal::util::Rng rng(static_cast<uint64_t>(scale * 1000) + 3);
  for (int i = 0; i < 500; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, scale));
    const float r = ct::half_to_float(ct::float_to_half(v));
    // half has 11 significand bits -> rel err <= 2^-11.
    EXPECT_NEAR(r, v, std::abs(v) * 4.9e-4 + 6.0e-8) << v;
  }
}

TEST_P(HalfProperty, RoundTripIsIdempotent) {
  const double scale = GetParam();
  coastal::util::Rng rng(static_cast<uint64_t>(scale * 1000) + 7);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, scale));
    const ct::half_t h1 = ct::float_to_half(v);
    const ct::half_t h2 = ct::float_to_half(ct::half_to_float(h1));
    EXPECT_EQ(h1, h2);
  }
}

INSTANTIATE_TEST_SUITE_P(Decades, HalfProperty,
                         ::testing::Values(1e-3, 1e-1, 1.0, 10.0, 1e3));

// ---------------------------------------------------------------------------
// Decomposition equivalence across rank counts and meshes.
// ---------------------------------------------------------------------------

using DecompCase = std::tuple<int, int, int>;  // nx, ny, ranks

class DecompEquivalence : public ::testing::TestWithParam<DecompCase> {};

TEST_P(DecompEquivalence, MatchesSingleRankBitwise) {
  auto [nx, ny, ranks] = GetParam();
  ocean::Grid g(nx, ny, 2, 350.0, 350.0);
  ocean::generate_estuary(g, ocean::EstuaryParams{}, 11);
  auto tides = ocean::TidalForcing::gulf_coast_default();
  ocean::PhysicsParams p;
  p.dt = 12.0;
  const int nsteps = 300;
  auto ref = ocean::run_decomposed(g, tides, p, 1, nsteps);
  auto par = ocean::run_decomposed(g, tides, p, ranks, nsteps);
  ASSERT_EQ(ref.zeta.size(), par.zeta.size());
  for (size_t i = 0; i < ref.zeta.size(); ++i)
    ASSERT_EQ(ref.zeta[i], par.zeta[i]) << "zeta[" << i << "]";
  for (size_t i = 0; i < ref.ubar.size(); ++i)
    ASSERT_EQ(ref.ubar[i], par.ubar[i]) << "ubar[" << i << "]";
  for (size_t i = 0; i < ref.vbar.size(); ++i)
    ASSERT_EQ(ref.vbar[i], par.vbar[i]) << "vbar[" << i << "]";
}

INSTANTIATE_TEST_SUITE_P(Meshes, DecompEquivalence,
                         ::testing::Values(DecompCase{24, 18, 2},
                                           DecompCase{24, 18, 3},
                                           DecompCase{16, 20, 5},
                                           DecompCase{30, 12, 4}));

// ---------------------------------------------------------------------------
// Roll/permute algebra on random shapes.
// ---------------------------------------------------------------------------

class ShapeAlgebra : public ::testing::TestWithParam<int64_t> {};

TEST_P(ShapeAlgebra, RollComposesAdditively) {
  const int64_t n = GetParam();
  coastal::util::Rng rng(static_cast<uint64_t>(n));
  Tensor x = Tensor::randn({n, 3}, rng);
  Tensor once = roll(roll(x, 0, 2), 0, 3);
  Tensor combined = roll(x, 0, 5);
  coastal::testing::expect_tensor_near(once, combined, 0.0);
}

TEST_P(ShapeAlgebra, PermuteInverseIsIdentity) {
  const int64_t n = GetParam();
  coastal::util::Rng rng(static_cast<uint64_t>(n) + 9);
  Tensor x = Tensor::randn({2, n, 3, 2}, rng);
  Tensor back = x.permute({2, 0, 3, 1}).permute({1, 3, 0, 2});
  coastal::testing::expect_tensor_near(back, x, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShapeAlgebra,
                         ::testing::Values(4, 7, 12, 31));
