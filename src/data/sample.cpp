#include "data/sample.hpp"

#include "util/check.hpp"

namespace coastal::data {

SampleSpec make_spec(int src_ny, int src_nx, int src_nz, int T,
                     int multiple_hw, int multiple_d) {
  auto round_up = [](int n, int m) { return ((n + m - 1) / m) * m; };
  SampleSpec spec;
  spec.src_ny = src_ny;
  spec.src_nx = src_nx;
  spec.src_nz = src_nz;
  spec.T = T;
  spec.H = round_up(src_ny, multiple_hw);
  spec.W = round_up(src_nx, multiple_hw);
  spec.D = round_up(src_nz, multiple_d);
  return spec;
}

namespace {

/// Writes variable `src` (layer-major (k, iy, ix)) into the volume tensor
/// at channel c and time t; `boundary_only` keeps just the lateral ring of
/// the source mesh.
void pack_volume(float* vol, const SampleSpec& s, int c, int t,
                 std::span<const float> src, bool boundary_only) {
  const int64_t Tn = s.T + 1;
  for (int k = 0; k < s.src_nz; ++k) {
    for (int iy = 0; iy < s.src_ny; ++iy) {
      const bool edge_row = (iy == 0 || iy == s.src_ny - 1);
      for (int ix = 0; ix < s.src_nx; ++ix) {
        if (boundary_only && !edge_row && ix != 0 && ix != s.src_nx - 1)
          continue;
        const float x =
            src[(static_cast<size_t>(k) * s.src_ny + iy) * s.src_nx + ix];
        const int64_t idx =
            ((((static_cast<int64_t>(c) * s.H + iy) * s.W + ix) * s.D + k) *
             Tn) + t;
        vol[idx] = x;
      }
    }
  }
}

void pack_surface(float* surf, const SampleSpec& s, int t,
                  std::span<const float> src, bool boundary_only) {
  const int64_t Tn = s.T + 1;
  for (int iy = 0; iy < s.src_ny; ++iy) {
    const bool edge_row = (iy == 0 || iy == s.src_ny - 1);
    for (int ix = 0; ix < s.src_nx; ++ix) {
      if (boundary_only && !edge_row && ix != 0 && ix != s.src_nx - 1)
        continue;
      surf[((static_cast<int64_t>(iy) * s.W + ix) * Tn) + t] =
          src[static_cast<size_t>(iy) * s.src_nx + ix];
    }
  }
}

/// Target layout has T time steps.
void pack_target_volume(float* vol, const SampleSpec& s, int c, int t,
                        std::span<const float> src) {
  for (int k = 0; k < s.src_nz; ++k)
    for (int iy = 0; iy < s.src_ny; ++iy)
      for (int ix = 0; ix < s.src_nx; ++ix) {
        const float x =
            src[(static_cast<size_t>(k) * s.src_ny + iy) * s.src_nx + ix];
        const int64_t idx =
            ((((static_cast<int64_t>(c) * s.H + iy) * s.W + ix) * s.D + k) *
             s.T) + t;
        vol[idx] = x;
      }
}

void pack_target_surface(float* surf, const SampleSpec& s, int t,
                         std::span<const float> src) {
  for (int iy = 0; iy < s.src_ny; ++iy)
    for (int ix = 0; ix < s.src_nx; ++ix)
      surf[((static_cast<int64_t>(iy) * s.W + ix) * s.T) + t] =
          src[static_cast<size_t>(iy) * s.src_nx + ix];
}

}  // namespace

Sample make_sample(const SampleSpec& spec,
                   std::span<const CenterFields> window) {
  COASTAL_CHECK_MSG(static_cast<int>(window.size()) == spec.T + 1,
                    "window needs T+1 = " << spec.T + 1 << " snapshots, got "
                                          << window.size());
  for (const auto& f : window) {
    COASTAL_CHECK(f.nx == spec.src_nx && f.ny == spec.src_ny &&
                  f.nz == spec.src_nz);
  }

  Sample s;
  s.volume = tensor::Tensor::zeros({3, spec.H, spec.W, spec.D, spec.T + 1});
  s.surface = tensor::Tensor::zeros({1, spec.H, spec.W, spec.T + 1});
  s.target_volume = tensor::Tensor::zeros({3, spec.H, spec.W, spec.D, spec.T});
  s.target_surface = tensor::Tensor::zeros({1, spec.H, spec.W, spec.T});

  for (int t = 0; t <= spec.T; ++t) {
    const auto& f = window[static_cast<size_t>(t)];
    const bool bc_only = (t > 0);
    pack_volume(s.volume.raw(), spec, 0, t, f.u, bc_only);
    pack_volume(s.volume.raw(), spec, 1, t, f.v, bc_only);
    pack_volume(s.volume.raw(), spec, 2, t, f.w, bc_only);
    pack_surface(s.surface.raw(), spec, t, f.zeta, bc_only);
    if (t > 0) {
      pack_target_volume(s.target_volume.raw(), spec, 0, t - 1, f.u);
      pack_target_volume(s.target_volume.raw(), spec, 1, t - 1, f.v);
      pack_target_volume(s.target_volume.raw(), spec, 2, t - 1, f.w);
      pack_target_surface(s.target_surface.raw(), spec, t - 1, f.zeta);
    }
  }
  return s;
}

BatchedInput make_batched_input(
    const SampleSpec& spec,
    std::span<const std::span<const CenterFields>> windows,
    std::span<const CenterFields* const> initial_conditions) {
  const int B = static_cast<int>(windows.size());
  COASTAL_CHECK_MSG(B > 0, "batched input needs at least one window");
  COASTAL_CHECK(initial_conditions.empty() ||
                initial_conditions.size() == windows.size());

  BatchedInput batch;
  batch.volume =
      tensor::Tensor::zeros({B, 3, spec.H, spec.W, spec.D, spec.T + 1});
  batch.surface = tensor::Tensor::zeros({B, 1, spec.H, spec.W, spec.T + 1});

  for (int b = 0; b < B; ++b) {
    const auto window = windows[static_cast<size_t>(b)];
    COASTAL_CHECK_MSG(static_cast<int>(window.size()) == spec.T + 1,
                      "window needs T+1 = " << spec.T + 1
                                            << " snapshots, got "
                                            << window.size());
    float* vol = batch.volume.raw() + b * spec.volume_numel();
    float* surf = batch.surface.raw() + b * spec.surface_numel();
    const CenterFields* ic =
        initial_conditions.empty() ? nullptr
                                   : initial_conditions[static_cast<size_t>(b)];
    for (int t = 0; t <= spec.T; ++t) {
      const auto& f = (t == 0 && ic) ? *ic : window[static_cast<size_t>(t)];
      COASTAL_CHECK(f.nx == spec.src_nx && f.ny == spec.src_ny &&
                    f.nz == spec.src_nz);
      const bool bc_only = (t > 0);
      pack_volume(vol, spec, 0, t, f.u, bc_only);
      pack_volume(vol, spec, 1, t, f.v, bc_only);
      pack_volume(vol, spec, 2, t, f.w, bc_only);
      pack_surface(surf, spec, t, f.zeta, bc_only);
    }
  }
  return batch;
}

}  // namespace coastal::data
