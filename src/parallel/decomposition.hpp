#pragma once

/// \file decomposition.hpp
/// 2-D Cartesian domain decomposition, as in MPI ROMS: the global
/// (nx, ny) horizontal grid is split into px * py rectangular tiles.  The
/// ROMS driver (ocean/parallel_driver) splits into row slabs (px = 1) and
/// trades its ghost rows itself.

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
};

/// Build the tile for `rank` in a (px, py) decomposition of (nx, ny).
/// Remainder cells are distributed to the low-index tiles, as MPI codes
/// conventionally do for near-balanced loads.
Tile make_tile(int rank, int px, int py, int nx, int ny, int halo);

}  // namespace coastal::par
