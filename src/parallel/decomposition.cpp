#include "parallel/decomposition.hpp"

#include <algorithm>

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

int Tile::neighbor(int dcx, int dcy) const {
  const int nx_ = cx + dcx;
  const int ny_ = cy + dcy;
  if (nx_ < 0 || nx_ >= px || ny_ < 0 || ny_ >= py) return -1;
  return ny_ * px + nx_;
}

namespace {

// Tags: 4 directions.  Messages between a fixed (src, dest) pair are
// ordered by the mailbox queue, so one tag per direction suffices.
enum Direction : int { kWest = 100, kEast = 101, kSouth = 102, kNorth = 103 };

}  // namespace

void exchange_halo(Comm& comm, const Tile& tile, std::span<float> field) {
  const int h = tile.halo;
  if (h == 0) return;
  const int nxp = tile.nx_padded();
  COASTAL_CHECK(field.size() ==
                static_cast<size_t>(nxp) * static_cast<size_t>(tile.ny_padded()));

  const int nxl = tile.nx_local();
  const int nyl = tile.ny_local();

  auto pack_column = [&](int ix_start, std::vector<float>& buf) {
    buf.resize(static_cast<size_t>(h) * static_cast<size_t>(nyl));
    size_t k = 0;
    for (int iy = 0; iy < nyl; ++iy)
      for (int dx = 0; dx < h; ++dx)
        buf[k++] = field[tile.padded_index(ix_start + dx, iy)];
  };
  auto unpack_column = [&](int ix_start, std::span<const float> buf) {
    size_t k = 0;
    for (int iy = 0; iy < nyl; ++iy)
      for (int dx = 0; dx < h; ++dx)
        field[tile.padded_index(ix_start + dx, iy)] = buf[k++];
  };
  auto pack_row = [&](int iy_start, std::vector<float>& buf) {
    buf.resize(static_cast<size_t>(h) * static_cast<size_t>(nxl));
    size_t k = 0;
    for (int dy = 0; dy < h; ++dy)
      for (int ix = 0; ix < nxl; ++ix)
        buf[k++] = field[tile.padded_index(ix, iy_start + dy)];
  };
  auto unpack_row = [&](int iy_start, std::span<const float> buf) {
    size_t k = 0;
    for (int dy = 0; dy < h; ++dy)
      for (int ix = 0; ix < nxl; ++ix)
        field[tile.padded_index(ix, iy_start + dy)] = buf[k++];
  };

  const int west = tile.neighbor(-1, 0);
  const int east = tile.neighbor(+1, 0);
  const int south = tile.neighbor(0, -1);
  const int north = tile.neighbor(0, +1);

  std::vector<float> sendbuf, recvbuf;

  // East-west exchange.  Send own edge cells; receive into ghost cells.
  if (west >= 0) {
    pack_column(0, sendbuf);
    comm.send(west, kEast, sendbuf);  // arrives as neighbour's east halo
  }
  if (east >= 0) {
    pack_column(nxl - h, sendbuf);
    comm.send(east, kWest, sendbuf);
  }
  if (west >= 0) {
    recvbuf.resize(static_cast<size_t>(h) * static_cast<size_t>(nyl));
    comm.recv(west, kWest, recvbuf);
    unpack_column(-h, recvbuf);
  }
  if (east >= 0) {
    recvbuf.resize(static_cast<size_t>(h) * static_cast<size_t>(nyl));
    comm.recv(east, kEast, recvbuf);
    unpack_column(nxl, recvbuf);
  }

  // North-south exchange.
  if (south >= 0) {
    pack_row(0, sendbuf);
    comm.send(south, kNorth, sendbuf);
  }
  if (north >= 0) {
    pack_row(nyl - h, sendbuf);
    comm.send(north, kSouth, sendbuf);
  }
  if (south >= 0) {
    recvbuf.resize(static_cast<size_t>(h) * static_cast<size_t>(nxl));
    comm.recv(south, kSouth, recvbuf);
    unpack_row(-h, recvbuf);
  }
  if (north >= 0) {
    recvbuf.resize(static_cast<size_t>(h) * static_cast<size_t>(nxl));
    comm.recv(north, kNorth, recvbuf);
    unpack_row(nyl, recvbuf);
  }
}

}  // namespace coastal::par
