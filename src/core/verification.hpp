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

#include <span>

#include "data/center_fields.hpp"
#include "data/normalization.hpp"
#include "ocean/grid.hpp"

namespace coastal::core {

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
