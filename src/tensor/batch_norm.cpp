/// \file batch_norm.cpp
/// kernels::batch_norm, in a file of its own because it must be compiled
/// with -ffp-contract=off (see CMakeLists.txt): it fuses a chain of
/// separately rounded ops, and a contracted c·c + acc or x·gamma + beta
/// would round once where the chain rounds twice.

#include <cmath>

#include "tensor/kernels.hpp"
#include "tensor/storage.hpp"

namespace coastal::tensor::kernels {

namespace {

constexpr int64_t kLanes = 8;

/// Sums channels [c, c + W) over `rows` rows into `acc`, in row order:
/// acc[u] += x[ro[2r] + c + u] (`ro` interleaves x and y offsets),
/// optionally centred on `mean` and squared first.  W is a compile-time
/// width so the accumulators stay in registers.
template <int64_t W, bool kSquares>
void sum_rows(const float* __restrict x, const int64_t* __restrict ro,
              int64_t rows, int64_t c, const float* __restrict mean,
              float* __restrict acc) {
  float a[W] = {};
  float m[W] = {};
  if (kSquares)
    for (int64_t u = 0; u < W; ++u) m[u] = mean[u];
  for (int64_t r = 0; r < rows; ++r) {
    const float* __restrict xr = x + ro[2 * r] + c;
    for (int64_t u = 0; u < W; ++u) {
      if (kSquares) {
        const float d = xr[u] - m[u];
        a[u] += d * d;
      } else {
        a[u] += xr[u];
      }
    }
  }
  for (int64_t u = 0; u < W; ++u) acc[u] = a[u];
}

/// One group's statistics: st[0, cols) = mean, st[cols, 2 cols) =
/// sqrt(var + eps).
void group_stats(const float* x, const int64_t* ro, int64_t rows, int64_t cols,
                 float eps, float* st) {
  const float inv = 1.0f / static_cast<float>(rows);
  float* mean = st;
  float* den = st + cols;
  int64_t c = 0;
  for (; c + kLanes <= cols; c += kLanes)
    sum_rows<kLanes, false>(x, ro, rows, c, nullptr, mean + c);
  for (; c < cols; ++c) sum_rows<1, false>(x, ro, rows, c, nullptr, mean + c);
  for (c = 0; c < cols; ++c) mean[c] = mean[c] * inv;
  for (c = 0; c + kLanes <= cols; c += kLanes)
    sum_rows<kLanes, true>(x, ro, rows, c, mean + c, den + c);
  for (; c < cols; ++c) sum_rows<1, true>(x, ro, rows, c, mean + c, den + c);
  for (c = 0; c < cols; ++c) den[c] = std::sqrt(den[c] * inv + eps);
}

}  // namespace

void batch_norm(const float* x, const Shape& x_strides, float* y,
                const Shape& y_strides, const Shape& row_dims, int64_t cols,
                int64_t groups, const float* gamma, const float* beta,
                float eps, const float* run_mean, const float* run_var) {
  COASTAL_CHECK(row_dims.size() == x_strides.size() &&
                row_dims.size() == y_strides.size() && groups >= 1);
  const int64_t rows = tensor::numel(row_dims);
  if (rows == 0 || cols == 0) return;
  COASTAL_CHECK(rows % groups == 0 && (!run_mean || groups == 1));
  Workspace& ws = workspace();

  // Row offsets in visit order, in x and in y: prepend axes from the
  // innermost out.
  std::vector<int64_t>& off = ws.norm_rows;
  off.assign(2, 0);
  for (size_t i = row_dims.size(); i-- > 0;) {
    const size_t m = off.size();
    off.resize(m * static_cast<size_t>(row_dims[i]));
    for (int64_t c = 1; c < row_dims[i]; ++c)
      for (size_t j = 0; j < m; j += 2) {
        off[static_cast<size_t>(c) * m + j] = off[j] + c * x_strides[i];
        off[static_cast<size_t>(c) * m + j + 1] = off[j + 1] + c * y_strides[i];
      }
  }

  // Per group: the mean, then sqrt(var + eps).  Channels run in blocks of
  // kLanes held in registers across the row sweep (a remainder block is
  // one channel wide); each channel's sum still adds rows in visit order.
  const int64_t per = rows / groups;
  std::vector<float>& stats = ws.norm_stats;
  stats.resize(static_cast<size_t>(groups * 2 * cols));
  float* st = stats.data();
  const int64_t* ro = off.data();  // (x offset, y offset) per row
  if (run_mean) {
    for (int64_t c = 0; c < cols; ++c) {
      st[c] = run_mean[c];
      st[cols + c] = std::sqrt(run_var[c] + eps);
    }
  } else {
    parallel_for(groups, 3 * per * cols, [&](int64_t lo, int64_t hi) {
      for (int64_t g = lo; g < hi; ++g) {
        group_stats(x, ro + 2 * g * per, per, cols, eps, st + g * 2 * cols);
      }
    });
  }

  parallel_for(rows, 4 * cols, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* __restrict mean = st + (r / per) * 2 * cols;
      const float* __restrict den = mean + cols;
      const float* __restrict xr = x + ro[2 * r];
      float* __restrict yr = y + ro[2 * r + 1];
      int64_t c = 0;
      for (; c + kLanes <= cols; c += kLanes)
        for (int64_t u = c; u < c + kLanes; ++u)
          yr[u] = (xr[u] - mean[u]) / den[u] * gamma[u] + beta[u];
      for (; c < cols; ++c)
        yr[c] = (xr[c] - mean[c]) / den[c] * gamma[c] + beta[c];
    }
  });
}

}  // namespace coastal::tensor::kernels
