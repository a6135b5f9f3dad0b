#include "parallel/decomposition.hpp"

#include <algorithm>
#include <array>

namespace coastal::par {

Tile make_tile(int rank, int px, int py, int nx, int ny, int halo) {
  COASTAL_CHECK(px >= 1 && py >= 1 && halo >= 0);
  COASTAL_CHECK_MSG(rank >= 0 && rank < px * py, "rank outside process grid");
  COASTAL_CHECK_MSG(nx >= px && ny >= py, "grid smaller than process grid");
  Tile t;
  t.px = px;
  t.py = py;
  t.cx = rank % px;
  t.cy = rank / px;
  t.halo = halo;
  const auto split = [](int n, int parts, int idx) {
    const int base = n / parts;
    const int rem = n % parts;
    const int lo = idx * base + std::min(idx, rem);
    const int len = base + (idx < rem ? 1 : 0);
    return std::array<int, 2>{lo, lo + len};
  };
  auto xr = split(nx, px, t.cx);
  auto yr = split(ny, py, t.cy);
  t.x0 = xr[0];
  t.x1 = xr[1];
  t.y0 = yr[0];
  t.y1 = yr[1];
  return t;
}

}  // namespace coastal::par
