#include "ocean/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace coastal::ocean {

namespace {

// a * b + c, fused exactly where GCC contracted the scalar solver this
// replaced in an FMA build.  This file is compiled with -ffp-contract=off,
// so nothing else fuses and a build without FMA fuses nothing.
inline double mul_add(double a, double b, double c) {
#ifdef __FMA__
  return __builtin_fma(a, b, c);
#else
  return a * b + c;
#endif
}

// The row kernels below are branch-free: every cell computes both sides of
// each wet/dry choice and selects, so GCC vectorizes them along x.  Each
// keeps the scalar solver's operation order per cell, including which sums
// are float (h + zeta, the four-point velocity averages, zeta differences),
// so the results are bitwise equal to it.  They are free functions because
// GCC honours __restrict only on parameters.  Each runs over [i0, i1).

// Depth at the x faces i0..i1 of the wet span [i0, i1) of one row.  A face
// with one dry side takes the wet cell's depth, which 0.5 * (D + D) gives
// exactly, so the span's end faces take their inner cell's depth.
void x_face_depths(int i0, int i1, const uint32_t* __restrict wet,
                   const float* __restrict h, const float* __restrict zo,
                   double* __restrict fd) {
  fd[i0] = h[i0] + zo[i0];
  for (int i = i0 + 1; i < i1; ++i) {
    const double dl = h[i - 1] + zo[i - 1];
    const double dr = h[i] + zo[i];
    fd[i] = 0.5 * ((wet[i - 1] ? dl : dr) + (wet[i] ? dr : dl));
  }
  fd[i1] = h[i1 - 1] + zo[i1 - 1];
}

// Continuity for the cells of one row; _s and _n are the rows south and
// north, fd the row's x-face depths.
void zeta_row_kernel(int i0, int i1, double dt, double min_depth, double dy,
                     const uint32_t* __restrict wet,
                     const uint32_t* __restrict wet_s,
                     const uint32_t* __restrict wet_n,
                     const float* __restrict h, const float* __restrict h_s,
                     const float* __restrict h_n, const float* __restrict zo,
                     const float* __restrict zo_s,
                     const float* __restrict zo_n,
                     const double* __restrict fd,
                     const double* __restrict dx, const float* __restrict u,
                     const float* __restrict v_s,
                     const float* __restrict v_n, float* __restrict z) {
  for (int i = i0; i < i1; ++i) {
    const double d_c = h[i] + zo[i];
    const double fx_w = fd[i] * u[i];
    const double fx_e = fd[i + 1] * u[i + 1];
    const double avg_s = 0.5 * (d_c + h_s[i] + zo_s[i]);
    const double avg_n = 0.5 * (d_c + h_n[i] + zo_n[i]);
    const double fd_s = wet_s[i] ? avg_s : d_c;
    const double fd_n = wet_n[i] ? avg_n : d_c;
    const double fy_s = fd_s * v_s[i];
    const double div =
        (fx_e - fx_w) / dx[i] + mul_add(fd_n, v_n[i], -fy_s) / dy;
    const double znew = mul_add(-div, dt, zo[i]);
    // Wetting floor: never let the column dry out entirely.
    const double floor_z = min_depth - h[i];
    const float z_wet = static_cast<float>(znew < floor_z ? floor_z : znew);
    z[i] = wet[i] ? z_wet : zo[i];
  }
}

// Momentum with semi-implicit bottom drag at the x faces of one row.
void u_row_kernel(int i0, int i1, double dt, double f, double g,
                  double dt_cd, const uint32_t* __restrict open,
                  const float* __restrict h, const float* __restrict z,
                  const float* __restrict v_s, const float* __restrict v_n,
                  const double* __restrict dx_face, float* __restrict u) {
  for (int i = i0; i < i1; ++i) {
    const double d_l = h[i - 1] + z[i - 1];
    const double d_r = h[i] + z[i];
    const double d_u = 0.5 * (d_l + d_r);
    const double v_at_u = 0.25 * (v_s[i - 1] + v_s[i] + v_n[i - 1] + v_n[i]);
    const double uc = u[i];
    const double speed = std::sqrt(mul_add(uc, uc, v_at_u * v_at_u));
    const double dzdx = (z[i] - z[i - 1]) / dx_face[i];
    const double rhs = mul_add(mul_add(f, v_at_u, -(g * dzdx)), dt, uc);
    const double denom = 1.0 + dt_cd * speed / d_u;
    const float u_open = static_cast<float>(rhs / denom);
    u[i] = open[i] ? u_open : 0.0f;
  }
}

// Momentum at the y faces of one face row, between cell rows _s and _n.
void v_row_kernel(int i0, int i1, double dt, double f, double g,
                  double dt_cd, double dy_face,
                  const uint32_t* __restrict open,
                  const float* __restrict h_s, const float* __restrict h_n,
                  const float* __restrict z_s, const float* __restrict z_n,
                  const float* __restrict u_s, const float* __restrict u_n,
                  float* __restrict v) {
  for (int i = i0; i < i1; ++i) {
    const double d_s = h_s[i] + z_s[i];
    const double d_n = h_n[i] + z_n[i];
    const double d_v = 0.5 * (d_s + d_n);
    const double u_at_v = 0.25 * (u_s[i] + u_s[i + 1] + u_n[i] + u_n[i + 1]);
    const double vc = v[i];
    const double speed = std::sqrt(mul_add(vc, vc, u_at_v * u_at_v));
    const double dzdy = (z_n[i] - z_s[i]) / dy_face;
    const double rhs = mul_add(mul_add(-f, u_at_v, -(g * dzdy)), dt, vc);
    const double denom = 1.0 + dt_cd * speed / d_v;
    const float v_open = static_cast<float>(rhs / denom);
    v[i] = open[i] ? v_open : 0.0f;
  }
}

}  // namespace

SlabSolver::SlabSolver(const Grid& grid, const TidalForcing& tides,
                       PhysicsParams params, int y0, int y1)
    : grid_(grid), tides_(tides), p_(params), y0_(y0), y1_(y1) {
  COASTAL_CHECK_MSG(0 <= y0 && y0 < y1 && y1 <= grid.ny(),
                    "bad slab [" << y0 << "," << y1 << ")");
  const int nx = grid.nx(), ny = grid.ny();
  const size_t w = static_cast<size_t>(nx);
  const size_t rows = static_cast<size_t>(nyl());
  zeta_.assign((rows + 2) * w, 0.0f);
  u_.assign((rows + 2) * (w + 1), 0.0f);
  v_.assign((rows + 1) * w, 0.0f);

  // Cell tables cover local rows -1..nyl; rows outside the domain are dry.
  wet_.assign((rows + 2) * w, 0u);
  h_.assign((rows + 2) * w, 0.0f);
  span_.assign(rows + 2, WetSpan{});
  for (int jy = -1; jy <= nyl(); ++jy) {
    const int gy = y0 + jy;
    if (gy < 0 || gy >= ny) continue;
    const size_t r = static_cast<size_t>(jy + 1);
    WetSpan& span = span_[r];
    span.lo = nx;
    for (int ix = 0; ix < nx; ++ix) {
      wet_[r * w + static_cast<size_t>(ix)] = grid.wet(ix, gy) ? 1u : 0u;
      h_[r * w + static_cast<size_t>(ix)] = grid.h(ix, gy);
      if (grid.wet(ix, gy)) {
        span.lo = std::min(span.lo, ix);
        span.hi = ix + 1;
      }
    }
    if (span.hi == 0) span.lo = 0;
  }
  u_open_.assign(rows * (w + 1), 0u);
  for (int jy = 0; jy < nyl(); ++jy)
    for (int ix = 1; ix < nx; ++ix)
      u_open_[static_cast<size_t>(jy) * (w + 1) + static_cast<size_t>(ix)] =
          grid.u_face_interior_open(ix, y0 + jy) ? 1u : 0u;
  v_open_.assign((rows + 1) * w, 0u);
  for (int jf = 0; jf <= nyl(); ++jf)
    for (int ix = 0; ix < nx; ++ix)
      v_open_[static_cast<size_t>(jf) * w + static_cast<size_t>(ix)] =
          grid.v_face_interior_open(ix, y0 + jf) ? 1u : 0u;

  dx_.resize(w);
  dx_face_.assign(w + 1, 0.0);
  for (int ix = 0; ix < nx; ++ix) dx_[static_cast<size_t>(ix)] = grid.dx(ix);
  for (int ix = 1; ix < nx; ++ix)
    dx_face_[static_cast<size_t>(ix)] = 0.5 * (grid.dx(ix - 1) + grid.dx(ix));
  dy_.resize(rows);
  dy_face_.assign(rows + 1, 0.0);
  for (int jy = 0; jy < nyl(); ++jy)
    dy_[static_cast<size_t>(jy)] = grid.dy(y0 + jy);
  for (int jf = 0; jf <= nyl(); ++jf) {
    const int gj = y0 + jf;
    if (gj > 0 && gj < ny)
      dy_face_[static_cast<size_t>(jf)] =
          0.5 * (grid.dy(gj - 1) + grid.dy(gj));
  }
  fd_.resize(w + 1);
}

const uint32_t* SlabSolver::wet_row(int jy) const {
  return wet_.data() + static_cast<size_t>(jy + 1) * grid_.nx();
}
const float* SlabSolver::h_row(int jy) const {
  return h_.data() + static_cast<size_t>(jy + 1) * grid_.nx();
}

std::span<float> SlabSolver::zeta_row(int jy) {
  COASTAL_DCHECK(jy >= -1 && jy <= nyl());
  const size_t nx = static_cast<size_t>(grid_.nx());
  return {zeta_.data() + static_cast<size_t>(jy + 1) * nx, nx};
}
std::span<const float> SlabSolver::zeta_row(int jy) const {
  const size_t nx = static_cast<size_t>(grid_.nx());
  return {zeta_.data() + static_cast<size_t>(jy + 1) * nx, nx};
}
std::span<float> SlabSolver::u_row(int jy) {
  COASTAL_DCHECK(jy >= -1 && jy <= nyl());
  const size_t w = static_cast<size_t>(grid_.nx()) + 1;
  return {u_.data() + static_cast<size_t>(jy + 1) * w, w};
}
std::span<const float> SlabSolver::u_row(int jy) const {
  const size_t w = static_cast<size_t>(grid_.nx()) + 1;
  return {u_.data() + static_cast<size_t>(jy + 1) * w, w};
}
std::span<float> SlabSolver::v_row(int jf) {
  COASTAL_DCHECK(jf >= 0 && jf <= nyl());
  const size_t nx = static_cast<size_t>(grid_.nx());
  return {v_.data() + static_cast<size_t>(jf) * nx, nx};
}
std::span<const float> SlabSolver::v_row(int jf) const {
  const size_t nx = static_cast<size_t>(grid_.nx());
  return {v_.data() + static_cast<size_t>(jf) * nx, nx};
}

// Each update runs its kernel over the wet span of a row (or, for v, the
// overlap of two rows' spans); faces outside it are closed.
void SlabSolver::update_zeta() {
  const int nx = grid_.nx();
  // The update must read the *old* free surface everywhere (including the
  // ghost rows) or the result would depend on row traversal order and on
  // the domain decomposition.
  zeta_old_ = zeta_;
  auto old_row = [&](int jy) {
    return zeta_old_.data() + static_cast<size_t>(jy + 1) * nx;
  };
  for (int jy = 0; jy < nyl(); ++jy) {
    const auto [lo, hi] = span_[static_cast<size_t>(jy + 1)];
    if (lo == hi) continue;  // dry cells keep their surface
    x_face_depths(lo, hi, wet_row(jy), h_row(jy), old_row(jy), fd_.data());
    zeta_row_kernel(lo, hi, p_.dt, p_.min_depth,
                    dy_[static_cast<size_t>(jy)], wet_row(jy),
                    wet_row(jy - 1), wet_row(jy + 1), h_row(jy),
                    h_row(jy - 1), h_row(jy + 1), old_row(jy),
                    old_row(jy - 1), old_row(jy + 1), fd_.data(), dx_.data(),
                    u_row(jy).data(), v_row(jy).data(), v_row(jy + 1).data(),
                    zeta_row(jy).data());
  }
}

void SlabSolver::update_u() {
  const int nx = grid_.nx();
  // West open boundary: Flather radiation against the tide.
  const double zext = tides_.elevation(t_ + p_.dt);
  for (int jy = 0; jy < nyl(); ++jy) {
    const float* h = h_row(jy);
    auto z = zeta_row(jy);
    auto uu = u_row(jy);
    if (wet_row(jy)[0]) {
      const double D = h[0] + z[0];
      uu[0] = static_cast<float>(std::sqrt(p_.g / D) * (zext - z[0]));
    } else {
      uu[0] = 0.0f;
    }
    // Interior faces lo+1..hi-1 lie inside the span; the east edge is closed.
    const auto [lo, hi] = span_[static_cast<size_t>(jy + 1)];
    const int end = std::max(hi, lo + 1);
    std::fill(uu.begin() + 1, uu.begin() + lo + 1, 0.0f);
    u_row_kernel(lo + 1, end, p_.dt, p_.f, p_.g, p_.dt * p_.cd,
                 u_open_.data() + static_cast<size_t>(jy) * (nx + 1), h,
                 z.data(), v_row(jy).data(), v_row(jy + 1).data(),
                 dx_face_.data(), uu.data());
    std::fill(uu.begin() + end, uu.end(), 0.0f);
  }
}

void SlabSolver::update_v() {
  const int nx = grid_.nx();
  for (int jf = 0; jf <= nyl(); ++jf) {
    // Cell rows jf-1 and jf (ghosts at the slab edges); rows beyond the
    // domain are dry, which closes the north and south edges.
    const WetSpan s = span_[static_cast<size_t>(jf)];
    const WetSpan n = span_[static_cast<size_t>(jf + 1)];
    const int lo = std::max(s.lo, n.lo);
    const int hi = std::max(lo, std::min(s.hi, n.hi));
    auto vv = v_row(jf);
    std::fill(vv.begin(), vv.begin() + lo, 0.0f);
    v_row_kernel(lo, hi, p_.dt, p_.f, p_.g, p_.dt * p_.cd,
                 dy_face_[static_cast<size_t>(jf)],
                 v_open_.data() + static_cast<size_t>(jf) * nx,
                 h_row(jf - 1), h_row(jf), zeta_row(jf - 1).data(),
                 zeta_row(jf).data(), u_row(jf - 1).data(),
                 u_row(jf).data(), vv.data());
    std::fill(vv.begin() + hi, vv.end(), 0.0f);
  }
}

void SlabSolver::step(const ExchangeHooks& hooks) {
  update_zeta();
  if (hooks.exchange_zeta) hooks.exchange_zeta(*this);
  update_u();
  if (hooks.exchange_u) hooks.exchange_u(*this);
  update_v();
  t_ += p_.dt;
}

double SlabSolver::owned_volume() const {
  double vol = 0.0;
  for (int jy = 0; jy < nyl(); ++jy) {
    const int gy = y0_ + jy;
    auto z = zeta_row(jy);
    for (int ix = 0; ix < grid_.nx(); ++ix) {
      if (!grid_.wet(ix, gy)) continue;
      vol += (grid_.h(ix, gy) + z[static_cast<size_t>(ix)]) *
             grid_.area(ix, gy);
    }
  }
  return vol;
}

TidalModel::TidalModel(const Grid& grid, const TidalForcing& tides,
                       PhysicsParams params)
    : grid_(grid), slab_(grid, tides, params, 0, grid.ny()) {}

void TidalModel::run_seconds(double seconds) {
  const double target = slab_.time() + seconds;
  while (slab_.time() < target - 1e-9) slab_.step();
}

std::vector<float> TidalModel::zeta() const {
  std::vector<float> out;
  out.reserve(grid_.cells());
  for (int jy = 0; jy < grid_.ny(); ++jy) {
    auto row = slab_.zeta_row(jy);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

std::vector<float> TidalModel::ubar() const {
  std::vector<float> out;
  out.reserve(static_cast<size_t>(grid_.nx() + 1) * grid_.ny());
  for (int jy = 0; jy < grid_.ny(); ++jy) {
    auto row = slab_.u_row(jy);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

std::vector<float> TidalModel::vbar() const {
  std::vector<float> out;
  out.reserve(grid_.cells() + static_cast<size_t>(grid_.nx()));
  for (int jf = 0; jf <= grid_.ny(); ++jf) {
    auto row = slab_.v_row(jf);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

}  // namespace coastal::ocean
