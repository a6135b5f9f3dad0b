#pragma once

/// \file window4d.hpp
/// 4-D window partitioning for (shifted) window attention — the Swin
/// mechanics of Sec. III-C / Fig. 3.
///
/// Feature maps are channels-last [B, H, W, D, T, C].  Partitioning with
/// window (mh, mw, md, mt) produces tokens [B * nW, N, C] with
/// N = mh*mw*md*mt and the window index varying fastest within the batch —
/// the layout nn::MultiHeadSelfAttention's grouped mask expects.  Shifted
/// windows use the cyclic-shift trick: roll every axis by -shift,
/// partition as usual, and add an attention mask that forbids pairs of
/// positions that were not neighbours before the roll.  The roll is fused
/// into the partition: both are one row permutation of the grid, which a
/// WindowPlan builds once.

#include <array>
#include <memory>

#include "tensor/tensor.hpp"

namespace coastal::core {

using tensor::Tensor;

using Window4d = std::array<int64_t, 4>;  ///< (mh, mw, md, mt)
using Grid4d = std::array<int64_t, 4>;    ///< (H, W, D, T)

/// Checks divisibility loudly (models must pad up front).
void check_window_divides(const Grid4d& grid, const Window4d& w);

/// Additive attention mask [nW, N, N] for shifted windows: 0 where the two
/// positions belonged to the same pre-shift region, -1e9 otherwise.
/// Constant for given (grid, window, shift).
Tensor shifted_window_mask(const Grid4d& grid, const Window4d& w,
                           const Window4d& shift);

/// The window layout of one attention block over a fixed grid: the token
/// order (cyclic shift by -shift fused in) as a row permutation, and the
/// shifted-window mask.  Built once; partition and reverse only read it,
/// so one plan serves concurrent forwards.
class WindowPlan {
 public:
  WindowPlan(const Grid4d& grid, const Window4d& window,
             const Window4d& shift);

  /// [B, H, W, D, T, C] -> [B * nW, N, C], rolled by -shift: one row gather.
  Tensor partition(const Tensor& x) const;
  /// [B * nW, N, C] -> [B, H, W, D, T, C], rolled back: one row gather.
  Tensor reverse(const Tensor& tokens) const;

  /// [nW, N, N] shifted-window mask; undefined when nothing is shifted.
  const Tensor& mask() const { return mask_; }

 private:
  Grid4d grid_;
  Window4d window_;
  std::shared_ptr<const tensor::RowPermutation> rows_;
  Tensor mask_;
};

}  // namespace coastal::core
