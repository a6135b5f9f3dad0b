#include "data/store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "tensor/half.hpp"
#include "util/check.hpp"

namespace coastal::data {

namespace {

constexpr uint32_t kMagic = 0x5A3DCA57u;

void write_tensor_fp16(std::ofstream& out, const tensor::Tensor& t) {
  const auto halves = tensor::to_half(t.data());
  out.write(reinterpret_cast<const char*>(halves.data()),
            static_cast<std::streamsize>(halves.size() * sizeof(uint16_t)));
}

tensor::Tensor read_tensor_fp16(std::ifstream& in, const tensor::Shape& shape) {
  const auto n = static_cast<size_t>(tensor::numel(shape));
  std::vector<uint16_t> halves(n);
  in.read(reinterpret_cast<char*>(halves.data()),
          static_cast<std::streamsize>(n * sizeof(uint16_t)));
  return tensor::Tensor::from_vector(shape, tensor::to_float(halves));
}

}  // namespace

SampleStore::SampleStore(std::string dir, const SampleSpec& spec)
    : dir_(std::move(dir)), spec_(spec) {
  std::filesystem::create_directories(dir_);
}

std::string SampleStore::path_for(size_t index) const {
  char name[64];
  std::snprintf(name, sizeof(name), "sample_%06zu.bin", index);
  return dir_ + "/" + name;
}

uint64_t SampleStore::sample_bytes() const {
  return 4 + 7 * 4 +
         static_cast<uint64_t>(spec_.total_numel()) * sizeof(uint16_t);
}

std::string SampleStore::write(size_t index, const Sample& sample) const {
  const std::string path = path_for(index);
  std::ofstream out(path, std::ios::binary);
  COASTAL_CHECK_MSG(out.good(), "cannot write " << path);
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  const int32_t hdr[7] = {spec_.H, spec_.W, spec_.D, spec_.T,
                          spec_.src_ny, spec_.src_nx, spec_.src_nz};
  out.write(reinterpret_cast<const char*>(hdr), sizeof(hdr));
  write_tensor_fp16(out, sample.volume);
  write_tensor_fp16(out, sample.surface);
  write_tensor_fp16(out, sample.target_volume);
  write_tensor_fp16(out, sample.target_surface);
  COASTAL_CHECK_MSG(out.good(), "write failed for " << path);
  return path;
}

Sample SampleStore::read(size_t index, DeviceSim* device) const {
  const std::string path = path_for(index);
  std::ifstream in(path, std::ios::binary);
  COASTAL_CHECK_MSG(in.good(), "cannot read " << path);
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  COASTAL_CHECK_MSG(magic == kMagic, path << " is not a sample file");
  int32_t hdr[7] = {};
  in.read(reinterpret_cast<char*>(hdr), sizeof(hdr));
  COASTAL_CHECK_MSG(in.good(), "truncated sample header in " << path);
  COASTAL_CHECK_MSG(hdr[0] == spec_.H && hdr[1] == spec_.W &&
                        hdr[2] == spec_.D && hdr[3] == spec_.T,
                    "sample spec mismatch in " << path);

  if (device) device->ssd_read(sample_bytes());

  Sample s;
  s.volume = read_tensor_fp16(in, {3, spec_.H, spec_.W, spec_.D, spec_.T + 1});
  s.surface = read_tensor_fp16(in, {1, spec_.H, spec_.W, spec_.T + 1});
  s.target_volume =
      read_tensor_fp16(in, {3, spec_.H, spec_.W, spec_.D, spec_.T});
  s.target_surface = read_tensor_fp16(in, {1, spec_.H, spec_.W, spec_.T});
  COASTAL_CHECK_MSG(in.good(), "truncated sample file " << path);
  return s;
}

size_t SampleStore::count() const {
  size_t n = 0;
  while (std::filesystem::exists(path_for(n))) ++n;
  return n;
}

}  // namespace coastal::data
