#include "nn/conv.hpp"

namespace coastal::nn {

namespace {

int64_t prod(const std::vector<int64_t>& v) {
  int64_t p = 1;
  for (int64_t x : v) p *= x;
  return p;
}

int64_t checked_kernel_volume(const std::vector<int64_t>& kernel) {
  for (int64_t k : kernel) COASTAL_CHECK_MSG(k >= 1, "kernel entries must be >= 1");
  return prod(kernel);
}

void check_view(const tensor::View& v, size_t k, int64_t channels) {
  COASTAL_CHECK_MSG(v.shape.size() == k + 3 && v.strides.size() == k + 3,
                    "conv view " << tensor::shape_str(v.shape)
                                 << " is not [B, F, s1..s" << k << ", C]");
  COASTAL_CHECK_MSG(v.shape.back() == channels,
                    "conv view has " << v.shape.back() << " channels, not "
                                     << channels);
}

}  // namespace

tensor::View field_view(const tensor::Shape& shape, size_t frame_axis,
                        size_t channel_axis) {
  COASTAL_CHECK(frame_axis > 0 && channel_axis > 0 &&
                frame_axis != channel_axis && frame_axis < shape.size() &&
                channel_axis < shape.size());
  const tensor::Shape st = tensor::strides_of(shape);
  tensor::View v;
  v.shape = {shape[0], shape[frame_axis]};
  v.strides = {st[0], st[frame_axis]};
  for (size_t i = 1; i < shape.size(); ++i) {
    if (i == frame_axis || i == channel_axis) continue;
    v.shape.push_back(shape[i]);
    v.strides.push_back(st[i]);
  }
  v.shape.push_back(shape[channel_axis]);
  v.strides.push_back(st[channel_axis]);
  return v;
}

PatchConvNd::PatchConvNd(int64_t in_channels, int64_t out_channels,
                         std::vector<int64_t> kernel, util::Rng& rng)
    : in_(in_channels), out_(out_channels), kernel_(std::move(kernel)) {
  proj_ = register_module<Linear>("proj", in_ * checked_kernel_volume(kernel_),
                                  out_, rng);
}

Tensor PatchConvNd::forward(const Tensor& x, const tensor::View& view) const {
  const size_t k = kernel_.size();
  check_view(view, k, in_);
  // One gather: rows (b, f, c1..ck), each row the block's channels then
  // kernel offsets, [B, F, c1..ck, C, k1..kk].
  tensor::View blocks{{view.shape[0], view.shape[1]},
                      {view.strides[0], view.strides[1]},
                      view.offset};
  tensor::Shape tokens = blocks.shape;
  for (size_t i = 0; i < k; ++i) {
    const int64_t d = view.shape[2 + i];
    COASTAL_CHECK_MSG(d % kernel_[i] == 0, "spatial dim " << d
                                                          << " not divisible by kernel "
                                                          << kernel_[i]);
    blocks.shape.push_back(d / kernel_[i]);
    blocks.strides.push_back(view.strides[2 + i] * kernel_[i]);
    tokens.push_back(d / kernel_[i]);
  }
  blocks.shape.push_back(in_);
  blocks.strides.push_back(view.strides.back());
  for (size_t i = 0; i < k; ++i) {
    blocks.shape.push_back(kernel_[i]);
    blocks.strides.push_back(view.strides[2 + i]);
  }
  tokens.push_back(in_ * prod(kernel_));
  return proj_->forward(tensor::gather(x, blocks, std::move(tokens)));
}

PatchConvTransposeNd::PatchConvTransposeNd(int64_t in_channels,
                                           int64_t out_channels,
                                           std::vector<int64_t> kernel,
                                           util::Rng& rng)
    : in_(in_channels), out_(out_channels), kernel_(std::move(kernel)) {
  proj_ = register_module<Linear>(
      "proj", in_, out_ * checked_kernel_volume(kernel_), rng);
}

PatchConvTransposeNd::Projection PatchConvTransposeNd::project(
    const Tensor& x, const tensor::View& view) const {
  const size_t k = kernel_.size();
  check_view(view, k, in_);
  const int64_t kvol = prod(kernel_);
  std::vector<int64_t> kernel_stride(k);  // within the weight's columns
  for (int64_t acc = 1, i = static_cast<int64_t>(k) - 1; i >= 0; --i) {
    kernel_stride[static_cast<size_t>(i)] = acc;
    acc *= kernel_[static_cast<size_t>(i)];
  }

  // Rows (b, f, c1..ck) of Cin channels, projected.
  Tensor rows = tensor::gather(x, view);
  const bool offset_major = !tensor::grad_enabled();
  Projection p;
  int64_t out_stride = kvol;  // column stride of Cout in y
  std::vector<int64_t> offset_stride = kernel_stride;  // of kernel axis i
  if (offset_major) {
    tensor::View cols{{in_}, {out_ * kvol}, 0};
    for (size_t i = 0; i < k; ++i) {
      cols.shape.push_back(kernel_[i]);
      cols.strides.push_back(kernel_stride[i]);
    }
    cols.shape.push_back(out_);
    cols.strides.push_back(kvol);
    Tensor w = tensor::gather(proj_->weight, cols, {in_, out_ * kvol});
    cols.shape.erase(cols.shape.begin());
    cols.strides.erase(cols.strides.begin());
    Tensor b = tensor::gather(proj_->bias, cols, {out_ * kvol});
    p.y = linear(rows, w, b);
    out_stride = 1;
    for (auto& st : offset_stride) st *= out_;
  } else {
    p.y = proj_->forward(rows);
  }

  // The fine view: [B, F, c1, k1, .., ck, kk, Cout] over y's strides.
  std::vector<int64_t> coarse_stride(k);  // y stride of coarse axis i
  int64_t acc = out_ * kvol;
  for (size_t i = k; i-- > 0;) {
    coarse_stride[i] = acc;
    acc *= view.shape[2 + i];
  }
  p.fine = {{view.shape[0], view.shape[1]}, {acc * view.shape[1], acc}, 0};
  for (size_t i = 0; i < k; ++i) {
    p.fine.shape.insert(p.fine.shape.end(), {view.shape[2 + i], kernel_[i]});
    p.fine.strides.insert(p.fine.strides.end(),
                          {coarse_stride[i], offset_stride[i]});
  }
  p.fine.shape.push_back(out_);
  p.fine.strides.push_back(out_stride);
  return p;
}

PointwiseConvNd::PointwiseConvNd(int64_t in_channels, int64_t out_channels,
                                 util::Rng& rng) {
  proj_ = register_module<Linear>("proj", in_channels, out_channels, rng);
}

Tensor PointwiseConvNd::forward(const Tensor& x) const {
  return proj_->forward(x);
}

}  // namespace coastal::nn
