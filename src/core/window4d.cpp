#include "core/window4d.hpp"

#include "util/check.hpp"

namespace coastal::core {

void check_window_divides(const Grid4d& g, const Window4d& w) {
  COASTAL_CHECK_MSG(g[0] % w[0] == 0 && g[1] % w[1] == 0 && g[2] % w[2] == 0 &&
                        g[3] % w[3] == 0,
                    "window (" << w[0] << "," << w[1] << "," << w[2] << ","
                               << w[3] << ") does not divide feature dims ("
                               << g[0] << "," << g[1] << "," << g[2] << ","
                               << g[3] << ")");
}

namespace {

/// Cells of a grid or a window.
int64_t volume(const std::array<int64_t, 4>& a) {
  return a[0] * a[1] * a[2] * a[3];
}

/// Calls fn(window, token, h, w, d, t) for every token slot of the rolled
/// grid in partition order — windows (wh, ww, wd, wt) row-major, then
/// tokens (ih, iw, id, it) row-major within the window — with (h, w, d, t)
/// the slot's rolled grid position.
template <typename Fn>
void for_each_slot(const Grid4d& g, const Window4d& w, Fn fn) {
  const int64_t nh = g[0] / w[0], nw = g[1] / w[1], nd = g[2] / w[2],
                nt = g[3] / w[3];
  int64_t widx = 0;
  for (int64_t wh = 0; wh < nh; ++wh)
    for (int64_t ww = 0; ww < nw; ++ww)
      for (int64_t wd = 0; wd < nd; ++wd)
        for (int64_t wt = 0; wt < nt; ++wt, ++widx) {
          int64_t tok = 0;
          for (int64_t ih = 0; ih < w[0]; ++ih)
            for (int64_t iw = 0; iw < w[1]; ++iw)
              for (int64_t id = 0; id < w[2]; ++id)
                for (int64_t it = 0; it < w[3]; ++it, ++tok)
                  fn(widx, tok, wh * w[0] + ih, ww * w[1] + iw,
                     wd * w[2] + id, wt * w[3] + it);
        }
}

}  // namespace

Tensor shifted_window_mask(const Grid4d& grid, const Window4d& w,
                           const Window4d& shift) {
  check_window_divides(grid, w);
  // Label every position of the (rolled) grid with its pre-shift region.
  // Along one axis with window m and shift s, the standard Swin regions
  // are [0, size-m), [size-m, size-s), [size-s, size): after rolling by
  // -s these land so that a window may straddle at most one region
  // boundary per axis.
  std::array<std::vector<int>, 4> axis_label;
  for (size_t a = 0; a < 4; ++a) {
    axis_label[a].resize(static_cast<size_t>(grid[a]));
    const int64_t m = w[a], s = shift[a];
    for (int64_t i = 0; i < grid[a]; ++i) {
      // Standard Swin labelling, applied to *rolled* positions: the last
      // window mixes the rolled-in tail ([size-m, size-s)) with the
      // wrapped-around head ([size-s, size)); everything before it is one
      // contiguous region.
      int label = 0;
      if (s > 0) {
        if (i >= grid[a] - m && i < grid[a] - s) label = 1;
        else if (i >= grid[a] - s) label = 2;
      }
      axis_label[a][static_cast<size_t>(i)] = label;
    }
  }

  const int64_t nwin = (grid[0] / w[0]) * (grid[1] / w[1]) *
                       (grid[2] / w[2]) * (grid[3] / w[3]);
  const int64_t N = w[0] * w[1] * w[2] * w[3];

  // Region id per token of each window.
  std::vector<int> region(static_cast<size_t>(nwin * N));
  for_each_slot(grid, w, [&](int64_t widx, int64_t tok, int64_t h, int64_t x,
                             int64_t d, int64_t t) {
    const int lh = axis_label[0][static_cast<size_t>(h)];
    const int lw = axis_label[1][static_cast<size_t>(x)];
    const int ld = axis_label[2][static_cast<size_t>(d)];
    const int lt = axis_label[3][static_cast<size_t>(t)];
    region[static_cast<size_t>(widx * N + tok)] =
        ((lh * 3 + lw) * 3 + ld) * 3 + lt;
  });

  std::vector<float> mask(static_cast<size_t>(nwin * N * N), 0.0f);
  for (int64_t b = 0; b < nwin; ++b)
    for (int64_t i = 0; i < N; ++i)
      for (int64_t j = 0; j < N; ++j) {
        if (region[static_cast<size_t>(b * N + i)] !=
            region[static_cast<size_t>(b * N + j)])
          mask[static_cast<size_t>((b * N + i) * N + j)] = -1e9f;
      }
  return Tensor::from_vector({nwin, N, N}, std::move(mask));
}

WindowPlan::WindowPlan(const Grid4d& grid, const Window4d& window,
                       const Window4d& shift)
    : grid_(grid), window_(window) {
  check_window_divides(grid, window);
  // Slot (window, token) reads the grid position the roll by -shift put
  // there: rolled[p] = x[(p + shift) mod size] on every axis.
  const int64_t N = volume(window);
  std::vector<int64_t> table(static_cast<size_t>(volume(grid)));
  for_each_slot(grid, window, [&](int64_t widx, int64_t tok, int64_t h,
                                  int64_t w, int64_t d, int64_t t) {
    const int64_t sh = (h + shift[0]) % grid[0], sw = (w + shift[1]) % grid[1],
                  sd = (d + shift[2]) % grid[2], st = (t + shift[3]) % grid[3];
    table[static_cast<size_t>(widx * N + tok)] =
        ((sh * grid[1] + sw) * grid[2] + sd) * grid[3] + st;
  });
  rows_ = std::make_shared<const tensor::RowPermutation>(std::move(table));
  if (shift[0] || shift[1] || shift[2] || shift[3]) {
    mask_ = shifted_window_mask(grid, window, shift);
  }
}

Tensor WindowPlan::partition(const Tensor& x) const {
  COASTAL_CHECK_MSG(x.ndim() == 6 && x.shape()[1] == grid_[0] &&
                        x.shape()[2] == grid_[1] && x.shape()[3] == grid_[2] &&
                        x.shape()[4] == grid_[3],
                    "window partition expects [B, " << grid_[0] << ", "
                        << grid_[1] << ", " << grid_[2] << ", " << grid_[3]
                        << ", C], got " << tensor::shape_str(x.shape()));
  const int64_t B = x.shape()[0], C = x.shape()[5], N = volume(window_);
  return tensor::gather_rows(x, rows_, /*inverse=*/false,
                             {B * volume(grid_) / N, N, C});
}

Tensor WindowPlan::reverse(const Tensor& tokens_in) const {
  const int64_t N = volume(window_), windows = volume(grid_) / N;
  COASTAL_CHECK(tokens_in.ndim() == 3 && tokens_in.shape()[1] == N &&
                tokens_in.shape()[0] % windows == 0);
  const int64_t B = tokens_in.shape()[0] / windows, C = tokens_in.shape()[2];
  return tensor::gather_rows(tokens_in, rows_, /*inverse=*/true,
                             {B, grid_[0], grid_[1], grid_[2], grid_[3], C});
}

}  // namespace coastal::core
