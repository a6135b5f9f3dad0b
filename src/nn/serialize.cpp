#include "nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>

#include "util/check.hpp"

namespace coastal::nn {

namespace {

constexpr uint32_t kMagic = 0xC0A57A17u;

std::vector<std::pair<std::string, Tensor>> all_state(const Module& m) {
  auto state = m.named_parameters();
  for (auto& kv : m.named_buffers()) state.push_back(kv);
  return state;
}

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
}

}  // namespace

void save_parameters(const Module& module, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  COASTAL_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  const auto state = all_state(module);
  write_pod(out, kMagic);
  write_pod(out, static_cast<uint64_t>(state.size()));
  for (const auto& [name, t] : state) {
    write_pod(out, static_cast<uint64_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_pod(out, static_cast<uint64_t>(t.ndim()));
    for (int64_t d : t.shape()) write_pod(out, d);
    out.write(reinterpret_cast<const char*>(t.raw()),
              static_cast<std::streamsize>(t.numel() * sizeof(float)));
  }
  COASTAL_CHECK_MSG(out.good(), "write failed for " << path);
}

void load_parameters(Module& module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  COASTAL_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  uint32_t magic = 0;
  read_pod(in, magic);
  COASTAL_CHECK_MSG(magic == kMagic, path << " is not a parameter file");
  uint64_t count = 0;
  read_pod(in, count);
  COASTAL_CHECK_MSG(in.good(), "truncated parameter file " << path);

  // Sizes read from the file are bounded by the live model before they
  // size an allocation: a corrupt header must fail with CheckError, not
  // request gigabytes or throw bad_alloc.
  std::map<std::string, Tensor> live;
  size_t max_name = 0, max_rank = 0;
  for (auto& [name, t] : all_state(module)) {
    max_name = std::max(max_name, name.size());
    max_rank = std::max(max_rank, t.ndim());
    live.emplace(name, t);
  }
  COASTAL_CHECK_MSG(count == live.size(),
                    "checkpoint has " << count << " entries, model has "
                                      << live.size());

  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_len = 0;
    read_pod(in, name_len);
    COASTAL_CHECK_MSG(in.good(), "truncated parameter file " << path);
    COASTAL_CHECK_MSG(name_len <= max_name,
                      path << ": parameter name length " << name_len
                           << " exceeds the longest model name ("
                           << max_name << ")");
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    COASTAL_CHECK_MSG(in.good(), "truncated parameter file " << path);
    uint64_t ndim = 0;
    read_pod(in, ndim);
    COASTAL_CHECK_MSG(in.good(), "truncated parameter file " << path);
    COASTAL_CHECK_MSG(ndim <= max_rank, path << ": rank " << ndim << " of "
                                             << name
                                             << " exceeds the model's largest ("
                                             << max_rank << ")");
    tensor::Shape shape(ndim);
    for (auto& d : shape) read_pod(in, d);
    COASTAL_CHECK_MSG(in.good(), "truncated parameter file " << path);

    auto it = live.find(name);
    COASTAL_CHECK_MSG(it != live.end(), "unknown parameter " << name);
    COASTAL_CHECK_MSG(it->second.shape() == shape,
                      "shape mismatch for " << name << ": file "
                                            << tensor::shape_str(shape)
                                            << " vs model "
                                            << tensor::shape_str(
                                                   it->second.shape()));
    in.read(reinterpret_cast<char*>(it->second.raw()),
            static_cast<std::streamsize>(it->second.numel() * sizeof(float)));
    COASTAL_CHECK_MSG(in.good(), "truncated parameter file " << path);
  }
}

}  // namespace coastal::nn
