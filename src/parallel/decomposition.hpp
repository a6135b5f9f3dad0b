#pragma once

/// \file decomposition.hpp
/// 2-D Cartesian domain decomposition with halo exchange — the
/// communication pattern of MPI ROMS.  The global (nx, ny) horizontal grid
/// is split into px * py rectangular tiles; each tile carries a halo ring
/// of ghost cells refreshed from its four neighbours every time step.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "parallel/communicator.hpp"
#include "util/check.hpp"

namespace coastal::par {

/// A rank's tile of the global domain.
struct Tile {
  int px, py;        ///< process-grid dimensions
  int cx, cy;        ///< this rank's coordinates in the process grid
  int x0, x1;        ///< global x-range [x0, x1) owned by this rank
  int y0, y1;        ///< global y-range [y0, y1)
  int halo;          ///< ghost ring width

  int nx_local() const { return x1 - x0; }
  int ny_local() const { return y1 - y0; }
  /// Padded extents including halos.
  int nx_padded() const { return nx_local() + 2 * halo; }
  int ny_padded() const { return ny_local() + 2 * halo; }

  /// Neighbour rank in the process grid, or -1 at the physical boundary.
  int neighbor(int dcx, int dcy) const;

  /// Flat index into a padded local array for local coordinates
  /// (ix in [-halo, nx_local+halo), iy likewise).
  size_t padded_index(int ix, int iy) const {
    return static_cast<size_t>(iy + halo) * static_cast<size_t>(nx_padded()) +
           static_cast<size_t>(ix + halo);
  }
};

/// Build the tile for `rank` in a (px, py) decomposition of (nx, ny).
/// Remainder cells are distributed to the low-index tiles, as MPI codes
/// conventionally do for near-balanced loads.
Tile make_tile(int rank, int px, int py, int nx, int ny, int halo);

/// Exchange the halo ring of a padded local field with the four
/// edge-neighbours (no corner exchange; the solver's stencils are 5-point).
/// `field` has tile.nx_padded() * tile.ny_padded() elements, row-major
/// with y as the slow dimension.
void exchange_halo(Comm& comm, const Tile& tile, std::span<float> field);

}  // namespace coastal::par
