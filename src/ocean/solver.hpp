#pragma once

/// \file solver.hpp
/// Barotropic shallow-water solver on the Arakawa-C grid — the fast
/// (depth-averaged) mode of ROMS, which carries tidal propagation.
///
/// Equations (flux-form continuity, so mass is conserved to rounding):
///   d(zeta)/dt = -d[(h+zeta) u]/dx - d[(h+zeta) v]/dy
///   du/dt =  f v - g d(zeta)/dx - Cd |U| u / D     (D = h + zeta)
///   dv/dt = -f u - g d(zeta)/dy - Cd |U| v / D
/// integrated with the forward-backward scheme ROMS uses for its fast
/// mode: zeta first from old velocities, then velocities from new zeta,
/// with semi-implicit bottom friction.  The western edge is an open
/// boundary with Flather radiation against the tidal elevation; all other
/// edges and land faces are closed.
///
/// The solver operates on a horizontal slab of rows [y0, y1) with one
/// ghost row on each side, so the identical code runs serially
/// (one slab = whole domain) and domain-decomposed across MPI-style ranks
/// (src/parallel): exactly ROMS's tiling strategy, in the 1-D tile
/// configuration.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ocean/grid.hpp"
#include "ocean/tides.hpp"

namespace coastal::ocean {

struct PhysicsParams {
  double g = 9.81;          ///< gravity, m/s^2
  double f = 6.3e-5;        ///< Coriolis parameter (26.5 N), 1/s
  double cd = 2.5e-3;       ///< quadratic bottom drag coefficient
  double dt = 20.0;         ///< barotropic time step, s
  double min_depth = 0.25;  ///< wetting floor, m
};

/// Solves the slab [y0, y1) of the grid.  For multi-rank runs the driver
/// wires `ExchangeHooks` to halo sends/recvs; serially the hooks are
/// no-ops (physical boundaries need no ghosts).
///
/// The solver reads the grid's geometry (masks, depths, spacing) once, at
/// construction, into its own tables, so a grid changed afterwards is not
/// seen; every caller finishes building the grid before that.  The updates
/// are branch-free row kernels whose results test_ocean_solver pins bit
/// for bit (docs/kernels.md, "ROMS fallback solver").
class SlabSolver {
 public:
  struct ExchangeHooks {
    /// Called after the zeta update / after the u update.  Implementations
    /// must fill ghost rows (-1 and nyl) from neighbouring slabs.
    std::function<void(SlabSolver&)> exchange_zeta;
    std::function<void(SlabSolver&)> exchange_u;
  };

  SlabSolver(const Grid& grid, const TidalForcing& tides, PhysicsParams params,
             int y0, int y1);

  /// Advance one barotropic step.
  void step(const ExchangeHooks& hooks);
  void step() { step(ExchangeHooks{}); }

  double time() const { return t_; }
  void set_time(double t) { t_ = t; }

  int y0() const { return y0_; }
  int y1() const { return y1_; }
  int nyl() const { return y1_ - y0_; }

  // --- row access (jy in [-1, nyl] for zeta/u; jf in [0, nyl] for v) ----
  std::span<float> zeta_row(int jy);
  std::span<const float> zeta_row(int jy) const;
  std::span<float> u_row(int jy);
  std::span<const float> u_row(int jy) const;
  std::span<float> v_row(int jf);
  std::span<const float> v_row(int jf) const;

  /// Point accessors in local coordinates.
  float zeta(int ix, int jy) const { return zeta_row(jy)[static_cast<size_t>(ix)]; }
  float u(int ix, int jy) const { return u_row(jy)[static_cast<size_t>(ix)]; }
  float v(int ix, int jf) const { return v_row(jf)[static_cast<size_t>(ix)]; }

  /// Total water volume over owned wet cells (for conservation tests).
  double owned_volume() const;

  const Grid& grid() const { return grid_; }

 private:
  void update_zeta();
  void update_u();
  void update_v();
  const uint32_t* wet_row(int jy) const;  ///< jy in [-1, nyl]
  const float* h_row(int jy) const;       ///< jy in [-1, nyl]

  const Grid& grid_;
  const TidalForcing& tides_;
  PhysicsParams p_;
  int y0_, y1_;
  double t_ = 0.0;

  // Padded storage; row r of zeta_/u_ is local row (r - 1).
  std::vector<float> zeta_;      ///< (nyl + 2) x nx
  std::vector<float> zeta_old_;  ///< scratch copy read during the update
  std::vector<float> u_;         ///< (nyl + 2) x (nx + 1)
  std::vector<float> v_;         ///< (nyl + 1) x nx

  // Geometry read from the grid at construction.  The masks are 32-bit so
  // the row kernels vectorize at the width of their float loads.
  struct WetSpan {
    int lo = 0, hi = 0;  ///< first wet cell, last wet cell + 1 (or 0, 0)
  };
  std::vector<uint32_t> wet_;     ///< (nyl + 2) x nx, rows like zeta_
  std::vector<float> h_;          ///< (nyl + 2) x nx, rows like zeta_
  std::vector<WetSpan> span_;     ///< nyl + 2, rows like zeta_
  std::vector<uint32_t> u_open_;  ///< nyl x (nx + 1), interior faces only
  std::vector<uint32_t> v_open_;  ///< (nyl + 1) x nx, rows like v_
  std::vector<double> dx_;        ///< nx
  std::vector<double> dx_face_;   ///< nx + 1, at interior u faces
  std::vector<double> dy_;        ///< nyl
  std::vector<double> dy_face_;   ///< nyl + 1, at interior v faces
  std::vector<double> fd_;        ///< scratch: x-face depths of one row
};

/// Serial facade: one slab covering the whole grid, plus snapshotting
/// conveniences used by the data pipeline.
class TidalModel {
 public:
  TidalModel(const Grid& grid, const TidalForcing& tides, PhysicsParams params);

  void step() { slab_.step(); }
  void run_seconds(double seconds);
  double time() const { return slab_.time(); }

  /// Full-domain fields (copies).
  std::vector<float> zeta() const;   ///< nx * ny
  std::vector<float> ubar() const;   ///< (nx+1) * ny
  std::vector<float> vbar() const;   ///< nx * (ny+1)

  double total_volume() const { return slab_.owned_volume(); }

  const Grid& grid() const { return grid_; }
  SlabSolver& slab() { return slab_; }

 private:
  const Grid& grid_;
  SlabSolver slab_;
};

}  // namespace coastal::ocean
