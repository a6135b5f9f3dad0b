#include "core/verification.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace coastal::core {

namespace {

/// Field access for cell_residual: velocities and ζ from the later
/// frame `b`, the previous ζ from `a`.  Accessors return float on
/// purpose: the depth sum h + ζ and the ζ difference are taken in float
/// before they meet double terms, and the pinned verdicts depend on that
/// rounding bit for bit.
struct FrameAccessor {
  const data::CenterFields& a;
  const data::CenterFields& b;
  int nz() const { return b.nz; }
  float u(int k, int ix, int iy) const { return b.u[b.cell3(k, iy, ix)]; }
  float v(int k, int ix, int iy) const { return b.v[b.cell3(k, iy, ix)]; }
  float zeta(int ix, int iy) const { return b.zeta[b.cell2(iy, ix)]; }
  float zeta_prev(int ix, int iy) const { return a.zeta[a.cell2(iy, ix)]; }
};

/// The per-cell water-mass residual |dζ/dt + ∇·(H ū)| of Eq. 5 at wet
/// cell (ix, iy).
double cell_residual(const ocean::Grid& grid, const FrameAccessor& f, int ix,
                     int iy, double dt_seconds) {
  const int nx = grid.nx(), ny = grid.ny();
  auto davg_u = [&](int cx, int cy) {
    double avg = 0.0;
    for (int k = 0; k < f.nz(); ++k)
      avg += f.u(k, cx, cy) * grid.sigma_thickness()[static_cast<size_t>(k)];
    return avg;
  };
  auto davg_v = [&](int cx, int cy) {
    double avg = 0.0;
    for (int k = 0; k < f.nz(); ++k)
      avg += f.v(k, cx, cy) * grid.sigma_thickness()[static_cast<size_t>(k)];
    return avg;
  };
  auto depth = [&](int cx, int cy) { return grid.h(cx, cy) + f.zeta(cx, cy); };

  // Face transport from cell-centered values: average the two adjacent
  // centers (both depth and velocity), zero across land and domain edges
  // except the open west boundary where the one-sided value is used.
  auto flux_x = [&](int face) -> double {  // positive eastward
    if (face == 0) {
      return grid.wet(0, iy) ? depth(0, iy) * davg_u(0, iy) : 0.0;
    }
    if (face == nx) return 0.0;
    if (!grid.wet(face - 1, iy) || !grid.wet(face, iy)) return 0.0;
    return 0.5 * (depth(face - 1, iy) + depth(face, iy)) * 0.5 *
           (davg_u(face - 1, iy) + davg_u(face, iy));
  };
  auto flux_y = [&](int face) -> double {
    if (face == 0 || face == ny) return 0.0;
    if (!grid.wet(ix, face - 1) || !grid.wet(ix, face)) return 0.0;
    return 0.5 * (depth(ix, face - 1) + depth(ix, face)) * 0.5 *
           (davg_v(ix, face - 1) + davg_v(ix, face));
  };

  const double div = (flux_x(ix + 1) - flux_x(ix)) / grid.dx(ix) +
                     (flux_y(iy + 1) - flux_y(iy)) / grid.dy(iy);
  const double dzdt = (f.zeta(ix, iy) - f.zeta_prev(ix, iy)) / dt_seconds;
  return std::abs(dzdt + div);
}

}  // namespace

VerificationResult MassVerifier::check_pair(const data::CenterFields& a,
                                            const data::CenterFields& b,
                                            double dt_seconds) const {
  COASTAL_CHECK(a.nx == grid_.nx() && a.ny == grid_.ny());
  COASTAL_CHECK(b.nx == grid_.nx() && b.ny == grid_.ny());
  COASTAL_CHECK(dt_seconds > 0);

  double sum = 0.0, worst = 0.0;
  size_t count = 0;
  const FrameAccessor f{a, b};
  for (int iy = 0; iy < grid_.ny(); ++iy) {
    for (int ix = 0; ix < grid_.nx(); ++ix) {
      if (!grid_.wet(ix, iy)) continue;
      const double residual = cell_residual(grid_, f, ix, iy, dt_seconds);
      sum += residual;
      worst = std::max(worst, residual);
      ++count;
    }
  }

  VerificationResult r;
  r.mean_residual = count ? sum / static_cast<double>(count) : 0.0;
  r.max_residual = worst;
  r.pass = r.mean_residual < threshold_;
  r.pair_sum = r.mean_residual;
  r.pairs = 1;
  return r;
}

VerificationResult MassVerifier::check_sequence(
    std::span<const data::CenterFields> frames, double dt_seconds) const {
  COASTAL_CHECK_MSG(frames.size() >= 2, "need at least two frames");
  return check_sequence(frames.front(), frames.subspan(1), dt_seconds);
}

VerificationResult MassVerifier::check_sequence(
    const data::CenterFields& first, std::span<const data::CenterFields> rest,
    double dt_seconds) const {
  COASTAL_CHECK_MSG(!rest.empty(), "need at least two frames");
  VerificationResult empty;
  empty.pass = true;
  return extend_sequence(empty, first, rest, dt_seconds);
}

VerificationResult MassVerifier::extend_sequence(
    const VerificationResult& base, const data::CenterFields& seed,
    std::span<const data::CenterFields> frames, double dt_seconds) const {
  VerificationResult agg = base;
  const data::CenterFields* prev = &seed;
  for (const auto& f : frames) {
    const auto r = check_pair(*prev, f, dt_seconds);
    agg.pair_sum += r.mean_residual;
    agg.max_residual = std::max(agg.max_residual, r.max_residual);
    agg.pass = agg.pass && r.pass;
    ++agg.pairs;
    prev = &f;
  }
  agg.mean_residual =
      agg.pairs ? agg.pair_sum / static_cast<double>(agg.pairs) : 0.0;
  return agg;
}

}  // namespace coastal::core
