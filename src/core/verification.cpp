#include "core/verification.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace coastal::core {

namespace {

/// cell_residual accessor over whole-domain frames (global == local
/// indexing).
struct FrameAccessor {
  const data::CenterFields& a;
  const data::CenterFields& b;
  int nz() const { return b.nz; }
  float u(int k, int ix, int iy) const { return b.u[b.cell3(k, iy, ix)]; }
  float v(int k, int ix, int iy) const { return b.v[b.cell3(k, iy, ix)]; }
  float zeta(int ix, int iy) const { return b.zeta[b.cell2(iy, ix)]; }
  float zeta_prev(int ix, int iy) const { return a.zeta[a.cell2(iy, ix)]; }
};

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
