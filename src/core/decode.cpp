#include "core/decode.hpp"

#include "util/check.hpp"

namespace coastal::core {

namespace {

/// Read one variable frame out of a packed target/prediction volume tensor
/// [B, 3, H, W, D, T] at batch entry b, channel c, time t.
void unpack_volume(const tensor::Tensor& vol, const data::SampleSpec& s,
                   int64_t b, int c, int t, std::vector<float>& dst) {
  const auto& shape = vol.shape();
  const int64_t T = shape[5];
  const float* p = vol.raw() + b * 3 * s.H * s.W * s.D * T;
  for (int k = 0; k < s.src_nz; ++k)
    for (int iy = 0; iy < s.src_ny; ++iy)
      for (int ix = 0; ix < s.src_nx; ++ix) {
        const int64_t idx =
            ((((static_cast<int64_t>(c) * s.H + iy) * s.W + ix) * s.D + k) *
             T) + t;
        dst[(static_cast<size_t>(k) * s.src_ny + iy) * s.src_nx + ix] =
            p[idx];
      }
}

void unpack_surface(const tensor::Tensor& surf, const data::SampleSpec& s,
                    int64_t b, int t, std::vector<float>& dst) {
  const auto& shape = surf.shape();
  const int64_t T = shape[4];
  const float* p = surf.raw() + b * s.H * s.W * T;
  for (int iy = 0; iy < s.src_ny; ++iy)
    for (int ix = 0; ix < s.src_nx; ++ix)
      dst[static_cast<size_t>(iy) * s.src_nx + ix] =
          p[((static_cast<int64_t>(iy) * s.W + ix) * T) + t];
}

std::vector<data::CenterFields> decode_tensors(const data::SampleSpec& spec,
                                               const tensor::Tensor& volume,
                                               const tensor::Tensor& surface,
                                               int64_t b,
                                               const data::Normalizer& norm) {
  COASTAL_CHECK(volume.ndim() == 6 && surface.ndim() == 5);
  COASTAL_CHECK(b >= 0 && b < volume.shape()[0] &&
                volume.shape()[0] == surface.shape()[0]);
  const auto T = static_cast<int>(volume.shape()[5]);

  std::vector<data::CenterFields> frames(static_cast<size_t>(T));
  const size_t n3 =
      static_cast<size_t>(spec.src_nz) * spec.src_ny * spec.src_nx;
  const size_t n2 = static_cast<size_t>(spec.src_ny) * spec.src_nx;
  for (int t = 0; t < T; ++t) {
    auto& f = frames[static_cast<size_t>(t)];
    f.nx = spec.src_nx;
    f.ny = spec.src_ny;
    f.nz = spec.src_nz;
    f.u.assign(n3, 0.0f);
    f.v.assign(n3, 0.0f);
    f.w.assign(n3, 0.0f);
    f.zeta.assign(n2, 0.0f);
    unpack_volume(volume, spec, b, 0, t, f.u);
    unpack_volume(volume, spec, b, 1, t, f.v);
    unpack_volume(volume, spec, b, 2, t, f.w);
    unpack_surface(surface, spec, b, t, f.zeta);
    norm.denormalize(f.u, data::kU);
    norm.denormalize(f.v, data::kV);
    norm.denormalize(f.w, data::kW);
    norm.denormalize(f.zeta, data::kZeta);
  }
  return frames;
}

}  // namespace

std::vector<data::CenterFields> decode_prediction(
    const data::SampleSpec& spec, const SurrogateOutput& output,
    const data::Normalizer& norm) {
  COASTAL_CHECK(output.volume.shape()[0] == 1);
  return decode_tensors(spec, output.volume, output.surface, 0, norm);
}

std::vector<data::CenterFields> decode_prediction_entry(
    const data::SampleSpec& spec, const SurrogateOutput& output, int64_t b,
    const data::Normalizer& norm) {
  return decode_tensors(spec, output.volume, output.surface, b, norm);
}

std::vector<data::CenterFields> decode_target(const data::SampleSpec& spec,
                                              const data::Sample& sample,
                                              const data::Normalizer& norm) {
  tensor::Shape vs = sample.target_volume.shape();
  tensor::Shape ss = sample.target_surface.shape();
  tensor::Shape bvs{1};
  bvs.insert(bvs.end(), vs.begin(), vs.end());
  tensor::Shape bss{1};
  bss.insert(bss.end(), ss.begin(), ss.end());
  return decode_tensors(spec, sample.target_volume.reshape(bvs),
                        sample.target_surface.reshape(bss), 0, norm);
}

}  // namespace coastal::core
