#pragma once

/// \file tensor.hpp
/// Dense row-major float tensor with tape-based reverse-mode autograd.
///
/// This stands in for libtorch in the reproduction: it provides exactly the
/// operator set the paper's 4-D Swin Transformer surrogate needs (broadcast
/// elementwise ops, batched matmul, softmax, layer/batch norm building
/// blocks, shape ops, strided and row gathers for the windows) plus
/// gradient checkpointing hooks.  Tensors are always contiguous; shape ops
/// materialize.  Compute is FP32; FP16 is a storage format (see half.hpp),
/// mirroring mixed-precision training where master math stays in higher
/// precision.
///
/// Autograd model: a Tensor is a shared handle to a TensorImpl.  Ops on
/// tensors that require grad record a Node holding the parents and a
/// backward function; Tensor::backward() runs a reverse topological sweep
/// accumulating gradients into leaf tensors' .grad().

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/shape.hpp"
#include "tensor/storage.hpp"
#include "util/rng.hpp"

namespace coastal::tensor {

class Tensor;
struct TensorImpl;

/// Autograd graph node: produced by one op application.
struct Node {
  std::string name;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  /// Maps the gradient w.r.t. this node's output to gradients w.r.t. each
  /// parent (same order; entries may be empty Tensors for non-diff inputs).
  std::function<std::vector<Tensor>(const Tensor& grad_out)> backward;
};

// AllocStats / alloc_stats() / reset_peak_bytes() live in storage.hpp with
// the pool they now account for; included above for source compatibility.

struct TensorImpl {
  Shape shape;
  Storage data;  ///< pooled / arena-backed float buffer (see storage.hpp)
  bool requires_grad = false;            ///< leaf flag
  std::shared_ptr<Node> grad_fn;         ///< non-null for op outputs
  std::shared_ptr<TensorImpl> grad;      ///< accumulated gradient (leaves)

  TensorImpl(Shape s, Storage d);
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;
};

/// Thread-local autograd mode; NoGradGuard disables graph recording in a
/// scope (used for inference and inside backward functions).
bool grad_enabled();
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

 private:
  bool prev_;
};

/// Scoped override of the autograd mode in either direction; activation
/// checkpointing re-enables recording inside a backward pass with this.
class GradModeGuard {
 public:
  explicit GradModeGuard(bool enable);
  ~GradModeGuard();

 private:
  bool prev_;
};

class Tensor {
 public:
  /// Empty (null) tensor; defined() is false.
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  bool defined() const { return impl_ != nullptr; }

  // ---- creation -------------------------------------------------------
  static Tensor zeros(const Shape& shape);
  static Tensor ones(const Shape& shape);
  static Tensor full(const Shape& shape, float value);
  static Tensor from_vector(const Shape& shape, std::vector<float> values);
  /// Takes ownership of a Storage buffer (the pooled-allocation path the
  /// op implementations use; result is a leaf with no grad history).
  static Tensor from_storage(const Shape& shape, Storage data);
  /// Gaussian init, N(0, stddev^2).
  static Tensor randn(const Shape& shape, util::Rng& rng, float stddev = 1.0f);
  static Tensor uniform(const Shape& shape, util::Rng& rng, float lo, float hi);

  // ---- metadata -------------------------------------------------------
  const Shape& shape() const { return impl_->shape; }
  int64_t dim(size_t i) const { return impl_->shape[i]; }
  size_t ndim() const { return impl_->shape.size(); }
  int64_t numel() const { return tensor::numel(impl_->shape); }

  std::span<float> data() {
    return {impl_->data.data(), static_cast<size_t>(impl_->data.size())};
  }
  std::span<const float> data() const {
    return {impl_->data.data(), static_cast<size_t>(impl_->data.size())};
  }
  float* raw() { return impl_->data.data(); }
  const float* raw() const { return impl_->data.data(); }

  /// Value of a scalar (1-element) tensor.
  float item() const;

  // ---- autograd -------------------------------------------------------
  /// Marks a leaf tensor as a trainable parameter.
  Tensor& set_requires_grad(bool rg);
  bool requires_grad() const { return impl_->requires_grad; }
  bool has_grad_fn() const { return impl_->grad_fn != nullptr; }
  std::shared_ptr<TensorImpl> impl() const { return impl_; }

  /// Gradient accumulated by backward(); undefined Tensor if none.
  Tensor grad() const;
  void zero_grad();
  /// Adds `g` into this tensor's grad buffer (creating it if absent).
  void accumulate_grad(const Tensor& g);

  /// Reverse-mode sweep from this (typically scalar loss) tensor.
  /// `seed` defaults to ones(shape()).
  void backward(const Tensor& seed = Tensor()) const;

  /// Copy that shares no storage and is detached from the graph.
  Tensor detach() const;

  // ---- elementwise ----------------------------------------------------
  Tensor add(const Tensor& o) const;
  Tensor sub(const Tensor& o) const;
  Tensor mul(const Tensor& o) const;
  Tensor div(const Tensor& o) const;
  Tensor add_scalar(float s) const;
  Tensor mul_scalar(float s) const;
  Tensor sqrt() const;
  /// Erf-form GELU, 0.5 x (1 + erf(x / sqrt(2))) — the paper's decoder
  /// activation.  erf is a branch-free rational polynomial (absolute GELU
  /// error ≤ 2e-6 on [-12, 12], IEEE specials as with std::erf; see
  /// kernels::gelu), not the tanh approximation.
  Tensor gelu() const;

  // ---- reductions -----------------------------------------------------
  Tensor sum() const;
  Tensor mean() const;
  Tensor sum_axis(int axis, bool keepdim = false) const;
  Tensor mean_axis(int axis, bool keepdim = false) const;
  /// Reduce-by-summation to a broadcast-compatible smaller shape (the
  /// adjoint of broadcasting).  Non-differentiable helper.
  Tensor sum_to(const Shape& target) const;

  // ---- linear algebra -------------------------------------------------
  /// Batched matmul: [..., m, k] x [..., k, n] -> [..., m, n]; leading
  /// batch dims broadcast.
  Tensor matmul(const Tensor& o) const;
  /// Swap the last two axes (materializing).
  Tensor transpose_last() const;

  // ---- shape ops ------------------------------------------------------
  /// One dimension may be -1 (inferred); with a zero-sized known
  /// dimension that is ambiguous and throws, as in torch.
  Tensor reshape(const Shape& new_shape) const&;
  /// On a temporary that is the tensor's only handle and carries no graph
  /// (no grad_fn, no requires_grad), relabels the shape in place instead
  /// of copying; otherwise as above.
  Tensor reshape(const Shape& new_shape) &&;
  Tensor permute(const std::vector<size_t>& perm) const;
  /// Slice along `axis`: elements [start, start + len).
  Tensor slice(int axis, int64_t start, int64_t len) const;

  // ---- fused NN ops ---------------------------------------------------
  /// Softmax over the last axis.
  Tensor softmax_lastdim() const;
  /// Layer normalization over the last axis with affine params
  /// gamma/beta of shape [last_dim].
  Tensor layer_norm(const Tensor& gamma, const Tensor& beta,
                    float eps = 1e-5f) const;

  // ---- operators ------------------------------------------------------
  Tensor operator+(const Tensor& o) const { return add(o); }
  Tensor operator-(const Tensor& o) const { return sub(o); }
  Tensor operator*(const Tensor& o) const { return mul(o); }
  Tensor operator/(const Tensor& o) const { return div(o); }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Concatenate along `axis`.
Tensor concat(const std::vector<Tensor>& parts, int axis);

/// Strided gather: a contiguous tensor over `v.shape` whose element at
/// coordinates c is x's element at flat offset `v.offset + Σ c_i·v.strides[i]`
/// — a permute, a slice, or both, in one kernels::permute_gather pass.
/// No source element may be read twice.  The result is labelled
/// `result_shape` (same element count; empty = `v.shape`).
/// Differentiable: the backward scatters the gradient into place (zeros
/// elsewhere).
Tensor gather(const Tensor& x, const View& v, Shape result_shape = {});

/// A row permutation and its inverse, built once and shared by every
/// gather_rows call (and backward) that uses it.
struct RowPermutation {
  std::vector<int64_t> fwd;  ///< destination row i reads source row fwd[i]
  std::vector<int64_t> inv;  ///< the inverse permutation
  explicit RowPermutation(std::vector<int64_t> table);
};

/// Row gather: x viewed as [B, S, C] with C its last dimension and S the
/// permutation's length; output row (b, i) is input row (b, fwd[i]) — or
/// (b, inv[i]) when `inverse`.  The result is labelled `result_shape`.
/// Differentiable: the backward is the opposite gather.
Tensor gather_rows(const Tensor& x, std::shared_ptr<const RowPermutation> perm,
                   bool inverse, Shape result_shape);

/// Build a tensor that participates in autograd with a caller-supplied
/// backward function — the extension point used by activation
/// checkpointing.  `backward` maps grad-wrt-output to grads-wrt-parents
/// (same order as `parents`; undefined Tensors mark non-diff inputs).
Tensor custom_op(Shape shape, Storage data, const char* name,
                 std::vector<Tensor> parents,
                 std::function<std::vector<Tensor>(const Tensor&)> backward);

/// Mean squared error between prediction and target (scalar output).
Tensor mse_loss(const Tensor& pred, const Tensor& target);

}  // namespace coastal::tensor
