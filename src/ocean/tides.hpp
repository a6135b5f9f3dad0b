#pragma once

/// \file tides.hpp
/// Astronomic tidal forcing as a sum of harmonic constituents, imposed at
/// the open (western) boundary.  The constituents carry realistic periods;
/// Gulf-coast estuaries like Charlotte Harbor are mixed (diurnal+semi-
/// diurnal), which the default set reflects.

#include <cmath>
#include <string>
#include <vector>

namespace coastal::ocean {

struct Constituent {
  std::string name;
  double amplitude_m;
  double period_hours;
  double phase_rad;
};

class TidalForcing {
 public:
  explicit TidalForcing(std::vector<Constituent> constituents)
      : constituents_(std::move(constituents)) {}

  /// Boundary surface elevation at time t (seconds since start).
  double elevation(double t_seconds) const {
    double z = 0.0;
    for (const auto& c : constituents_) {
      const double omega = 2.0 * M_PI / (c.period_hours * 3600.0);
      // Fused where FMA is available, as GCC contracts it there: the
      // solver's file is compiled with -ffp-contract=off and must agree
      // with every other caller.
#ifdef __FMA__
      z = __builtin_fma(
          c.amplitude_m,
          std::cos(__builtin_fma(omega, t_seconds, c.phase_rad)), z);
#else
      z += c.amplitude_m * std::cos(omega * t_seconds + c.phase_rad);
#endif
    }
    return z;
  }

  const std::vector<Constituent>& constituents() const { return constituents_; }

  /// Mixed semidiurnal/diurnal set typical of the Florida Gulf coast.
  static TidalForcing gulf_coast_default() {
    return TidalForcing({
        {"M2", 0.24, 12.4206, 0.00},
        {"S2", 0.08, 12.0000, 0.85},
        {"N2", 0.05, 12.6583, 1.90},
        {"K1", 0.16, 23.9345, 0.40},
        {"O1", 0.15, 25.8193, 2.30},
    });
  }

 private:
  std::vector<Constituent> constituents_;
};

}  // namespace coastal::ocean
