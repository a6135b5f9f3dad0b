#pragma once

/// \file test_helpers.hpp
/// Shared test utilities: numeric gradient checking by central differences,
/// tensor comparison helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"

namespace coastal::testing {

using tensor::Tensor;

/// RAII override of the kernel config (thread count, grains, tile sizes);
/// restores the previous config on scope exit even if a check throws.
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
