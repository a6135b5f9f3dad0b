#pragma once

/// \file test_helpers.hpp
/// Shared test utilities: numeric gradient checking by central differences,
/// tensor comparison helpers, and the element access and reference ops
/// tests build expectations with.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"

namespace coastal::testing {

using tensor::Tensor;

/// RAII override of the kernel config (thread count, grains); restores the previous config on scope exit even if a check throws.
struct KernelConfigOverride {
  tensor::kernels::KernelConfig saved = tensor::kernels::config();
  ~KernelConfigOverride() { tensor::kernels::config() = saved; }
};

/// RAII environment override: sets `name` to `value` (unsets it when
/// `value` is null) and restores the previous state on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
    set(value);
  }
  ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void set(const char* value) const {
    if (value) {
      setenv(name_, value, 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Expect `fn` to throw util::CheckError whose message names `what`.
template <typename Fn>
void expect_check_error_naming(Fn&& fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "expected a CheckError naming " << what;
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

/// [0, 1, .., n-1] as a 1-d tensor.
inline Tensor arange(int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0.0f);
  return Tensor::from_vector({n}, std::move(v));
}

/// Flat offset of full coordinates `c` in a contiguous tensor.
inline int64_t offset_of(const Tensor& t, const std::vector<int64_t>& c) {
  EXPECT_EQ(c.size(), t.ndim());
  return tensor::dot_strides(c, tensor::strides_of(t.shape()));
}

/// Element access by full coordinates.
inline float at(const Tensor& t, const std::vector<int64_t>& c) {
  return t.raw()[offset_of(t, c)];
}
inline void set(Tensor& t, const std::vector<int64_t>& c, float v) {
  t.raw()[offset_of(t, c)] = v;
}

/// Reference circular shift along `axis` (positive = toward higher
/// indices), outside the graph: what the fused window shift must equal.
inline Tensor roll(const Tensor& x, int axis, int64_t shift) {
  const size_t a = static_cast<size_t>(axis);
  const int64_t len = x.shape()[a];
  const int64_t s = ((shift % len) + len) % len;
  int64_t outer = 1, inner = 1;
  for (size_t i = 0; i < a; ++i) outer *= x.shape()[i];
  for (size_t i = a + 1; i < x.ndim(); ++i) inner *= x.shape()[i];
  std::vector<float> out(static_cast<size_t>(x.numel()));
  for (int64_t o = 0; o < outer; ++o)
    for (int64_t l = 0; l < len; ++l)
      std::copy_n(x.raw() + (o * len + l) * inner, inner,
                  out.data() + (o * len + (l + s) % len) * inner);
  return Tensor::from_vector(x.shape(), std::move(out));
}

/// BatchNorm of a contiguous [..., C] tensor, its rows in layout order.
inline Tensor bn_forward(nn::BatchNorm& bn, const Tensor& x) {
  std::vector<size_t> order(x.ndim() - 1);
  std::iota(order.begin(), order.end(), size_t{0});
  return bn.forward(x, {x.shape(), tensor::strides_of(x.shape()), 0}, order,
                    x.shape());
}

/// Max absolute elementwise difference.
inline double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double m = 0.0;
  auto pa = a.data();
  auto pb = b.data();
  for (size_t i = 0; i < pa.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(pa[i]) - pb[i]));
  return m;
}

inline void expect_tensor_near(const Tensor& a, const Tensor& b,
                               double tol = 1e-5) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_LE(max_abs_diff(a, b), tol);
}

/// Checks the analytic gradient of `loss_fn` (a scalar function of the
/// single differentiable input `x`) against central differences.
///
/// Relative tolerance is applied per element against
/// max(1, |analytic|, |numeric|) so both tiny and large gradients are
/// covered.
inline void gradcheck(const std::function<Tensor(const Tensor&)>& loss_fn,
                      Tensor x, double eps = 1e-3, double tol = 2e-2) {
  x.set_requires_grad(true);
  x.zero_grad();
  Tensor loss = loss_fn(x);
  ASSERT_EQ(loss.numel(), 1) << "gradcheck needs a scalar loss";
  loss.backward();
  Tensor analytic = x.grad();
  ASSERT_TRUE(analytic.defined()) << "no gradient reached the input";

  auto px = x.data();
  for (size_t i = 0; i < px.size(); ++i) {
    const float orig = px[i];
    px[i] = orig + static_cast<float>(eps);
    double up;
    {
      tensor::NoGradGuard ng;
      up = loss_fn(x).item();
    }
    px[i] = orig - static_cast<float>(eps);
    double down;
    {
      tensor::NoGradGuard ng;
      down = loss_fn(x).item();
    }
    px[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    const double a = analytic.data()[i];
    const double denom = std::max({1.0, std::abs(a), std::abs(numeric)});
    EXPECT_NEAR(a / denom, numeric / denom, tol)
        << "gradient mismatch at flat index " << i << ": analytic " << a
        << " vs numeric " << numeric;
  }
}

}  // namespace coastal::testing
