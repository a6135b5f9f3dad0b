#pragma once

/// \file verification.hpp
/// Physics-based result verification (Sec. III-E).
///
/// The conservation of water mass (Eq. 4) requires the rate of change of
/// column volume to equal the net flux through the column walls:
///   d/dt [ (h + zeta) * A ] = sum_faces (h + zeta)_face * u_face . n * L
/// The residual (Eq. 5), normalized per unit area so its unit is m/s, is
/// computed per wet cell from two consecutive snapshots; a forecast passes
/// when the mean residual is below the threshold.  Oceanographers accept
/// residuals below ~5e-4 m/s at the paper's scale; thresholds here are in
/// the same unit and swept by the Fig. 7/8 benches.

#include <cmath>
#include <span>

#include "data/center_fields.hpp"
#include "data/normalization.hpp"
#include "ocean/grid.hpp"

namespace coastal::core {

/// The per-cell water-mass residual |dζ/dt + ∇·(H ū)| of Eq. 5 at wet
/// cell (ix, iy), with field access indirected through `F`:
///   float u(int k, int ix, int iy), v(k, ix, iy)  — layered velocities
///   float zeta(int ix, int iy), zeta_prev(int ix, int iy)
///   int nz()
/// all by *global* grid indices.  The one stencil implementation is
/// shared by MassVerifier::check_pair (whole-domain frames) and the
/// sharded per-rank partials (halo-padded tiles, serve/shard.cpp), so
/// the serial and the allreduce-reduced verdicts can never drift.
/// Accessors return float on purpose: ζ differences and depth sums
/// promote exactly where the historic inline code promoted, keeping
/// results bit-for-bit.
template <class F>
double cell_residual(const ocean::Grid& grid, const F& f, int ix, int iy,
                     double dt_seconds) {
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

struct VerificationResult {
  double mean_residual = 0.0;  ///< m/s, averaged over wet cells
  double max_residual = 0.0;
  bool pass = false;
  /// The raw left-to-right accumulation behind mean_residual: the sum of
  /// per-pair mean residuals and the pair count.  Kept so a sequence
  /// verdict over frames [0, k] can later be *extended* over appended
  /// frames (extend_sequence) bitwise-identically to one longer pass —
  /// reconstructing the sum from the divided mean would reintroduce a
  /// rounding the single-pass fold never performs.
  double pair_sum = 0.0;
  int pairs = 0;
};

class MassVerifier {
 public:
  MassVerifier(const ocean::Grid& grid, double threshold_ms)
      : grid_(grid), threshold_(threshold_ms) {}

  double threshold() const { return threshold_; }

  /// Residual between consecutive cell-centered snapshots `a` (t) and `b`
  /// (t + dt).  Velocities are depth-averaged from the sigma layers of `b`.
  VerificationResult check_pair(const data::CenterFields& a,
                                const data::CenterFields& b,
                                double dt_seconds) const;

  /// Verify a whole forecast episode: first frame is the initial
  /// condition.  Mean/max aggregate over all consecutive pairs; `pass`
  /// requires every pair's mean to beat the threshold.
  VerificationResult check_sequence(std::span<const data::CenterFields> frames,
                                    double dt_seconds) const;
  /// The same verdict over [first, rest...] without assembling that
  /// sequence: `first` is the initial condition, `rest` the forecast.
  VerificationResult check_sequence(const data::CenterFields& first,
                                    std::span<const data::CenterFields> rest,
                                    double dt_seconds) const;

  /// Extend a sequence verdict across appended frames: fold the
  /// consecutive pairs of [seed, frames...] into `base` exactly as one
  /// longer check_sequence pass would — same left-to-right double sum,
  /// same max, same pass conjunction — so a cached prefix verdict plus a
  /// freshly computed suffix reproduces the full-chain verdict bitwise
  /// (the serve cache's prefix-resume verification).  `seed` is the last
  /// frame `base` covered; `base` must carry its pair_sum/pairs.
  VerificationResult extend_sequence(const VerificationResult& base,
                                     const data::CenterFields& seed,
                                     std::span<const data::CenterFields> frames,
                                     double dt_seconds) const;

 private:
  const ocean::Grid& grid_;
  double threshold_;
};

}  // namespace coastal::core
