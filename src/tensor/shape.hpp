#pragma once

/// \file shape.hpp
/// Shape arithmetic shared by all tensor ops: row-major strides, numpy
/// broadcasting rules, and linear-index <-> coordinate conversion.

#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace coastal::tensor {

using Shape = std::vector<int64_t>;

inline int64_t numel(const Shape& s) {
  int64_t n = 1;
  for (int64_t d : s) n *= d;
  return n;
}

inline std::string shape_str(const Shape& s) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < s.size(); ++i) os << (i ? "," : "") << s[i];
  os << "]";
  return os.str();
}

/// A strided view of a tensor's buffer: the element at coordinates c of
/// `shape` sits at flat offset `offset + Σ c_i·strides[i]`.
struct View {
  Shape shape;
  Shape strides;
  int64_t offset = 0;
};

/// Throws unless every element of `v` lies in a buffer of `n` floats.
inline void check_view_within(const View& v, int64_t n) {
  COASTAL_CHECK(v.strides.size() == v.shape.size());
  int64_t last = v.offset;  // furthest element read
  bool empty = false;
  for (size_t i = 0; i < v.shape.size(); ++i) {
    COASTAL_CHECK(v.shape[i] >= 0 && v.strides[i] >= 0);
    empty = empty || v.shape[i] == 0;
    if (v.shape[i] > 0) last += (v.shape[i] - 1) * v.strides[i];
  }
  COASTAL_CHECK_MSG(empty || (v.offset >= 0 && last < n),
                    "view " << shape_str(v.shape) << " reaches past " << n
                            << " elements");
}

/// Row-major (C-order) strides, in elements.
inline Shape strides_of(const Shape& s) {
  Shape st(s.size());
  int64_t acc = 1;
  for (size_t i = s.size(); i-- > 0;) {
    st[i] = acc;
    acc *= s[i];
  }
  return st;
}

/// Numpy broadcast of two shapes; throws on incompatibility.
inline Shape broadcast_shapes(const Shape& a, const Shape& b) {
  const size_t n = std::max(a.size(), b.size());
  Shape out(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t da = i < n - a.size() ? 1 : a[i - (n - a.size())];
    const int64_t db = i < n - b.size() ? 1 : b[i - (n - b.size())];
    COASTAL_CHECK_MSG(da == db || da == 1 || db == 1,
                      "cannot broadcast " << shape_str(a) << " with "
                                          << shape_str(b));
    out[i] = da == 1 ? db : da;  // a size-1 axis stretches, even to 0
  }
  return out;
}

/// Strides usable to read a tensor of shape `from` at coordinates of the
/// broadcast shape `to` (stride 0 on broadcast axes).
inline Shape broadcast_strides(const Shape& from, const Shape& to) {
  const Shape st = strides_of(from);
  Shape out(to.size(), 0);
  const size_t offset = to.size() - from.size();
  for (size_t i = 0; i < from.size(); ++i) {
    const size_t j = i + offset;
    COASTAL_CHECK(from[i] == to[j] || from[i] == 1);
    out[j] = (from[i] == 1) ? 0 : st[i];
  }
  return out;
}

/// Coordinate iterator over a shape (odometer order).  Amortized O(1) per
/// step; used by the generic strided kernels.
class CoordIter {
 public:
  explicit CoordIter(const Shape& shape)
      : shape_(shape), coords_(shape.size(), 0) {}

  const std::vector<int64_t>& coords() const { return coords_; }

  /// Advance; returns false after the last coordinate.
  bool next() {
    for (size_t i = coords_.size(); i-- > 0;) {
      if (++coords_[i] < shape_[i]) return true;
      coords_[i] = 0;
    }
    return false;
  }

 private:
  Shape shape_;
  std::vector<int64_t> coords_;
};

inline int64_t dot_strides(const std::vector<int64_t>& coords,
                           const Shape& strides) {
  int64_t off = 0;
  for (size_t i = 0; i < coords.size(); ++i) off += coords[i] * strides[i];
  return off;
}

}  // namespace coastal::tensor
