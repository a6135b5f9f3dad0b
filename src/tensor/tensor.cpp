#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "obs/profile.hpp"
#include "tensor/kernels.hpp"

namespace coastal::tensor {

// ---------------------------------------------------------------------------
// Impl construction (allocation accounting lives in storage.cpp now)
// ---------------------------------------------------------------------------

TensorImpl::TensorImpl(Shape s, Storage d)
    : shape(std::move(s)), data(std::move(d)) {
  COASTAL_CHECK_MSG(data.size() == tensor::numel(shape),
                    "data size " << data.size() << " != numel of "
                                 << shape_str(shape));
}

TensorImpl::~TensorImpl() = default;

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }

GradModeGuard::GradModeGuard(bool enable) : prev_(t_grad_enabled) {
  t_grad_enabled = enable;
}
GradModeGuard::~GradModeGuard() { t_grad_enabled = prev_; }

// ---------------------------------------------------------------------------
// Op-result construction
// ---------------------------------------------------------------------------

namespace {

bool needs_graph(const std::vector<Tensor>& parents) {
  if (!t_grad_enabled) return false;
  for (const auto& p : parents) {
    if (p.defined() && (p.requires_grad() || p.has_grad_fn())) return true;
  }
  return false;
}

Tensor make_result(
    Shape shape, Storage data, const char* name, std::vector<Tensor> parents,
    std::function<std::vector<Tensor>(const Tensor&)> backward) {
  auto impl = std::make_shared<TensorImpl>(std::move(shape), std::move(data));
  if (needs_graph(parents)) {
    auto node = std::make_shared<Node>();
    node->name = name;
    node->parents.reserve(parents.size());
    for (const auto& p : parents) node->parents.push_back(p.impl());
    node->backward = std::move(backward);
    impl->grad_fn = std::move(node);
  }
  return Tensor(std::move(impl));
}

/// Accumulate `g` into `acc` (clone on first write so the source graph's
/// buffers are never aliased).
void add_into(Tensor& acc, const Tensor& g) {
  if (!acc.defined()) {
    acc = g.detach();
    return;
  }
  COASTAL_CHECK(acc.shape() == g.shape());
  kernels::binary_same(kernels::BinOp::kAdd, acc.raw(), g.raw(), acc.raw(),
                       acc.numel());
}

/// Non-differentiable broadcast materialization (backward helper): a
/// stride-0 gather.
Tensor broadcast_to(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  Storage out = Storage::uninit(tensor::numel(target));
  kernels::permute_gather(t.raw(), out.data(), target,
                          broadcast_strides(t.shape(), target));
  return Tensor::from_storage(target, std::move(out));
}

int normalize_axis(int axis, size_t ndim) {
  int a = axis < 0 ? axis + static_cast<int>(ndim) : axis;
  COASTAL_CHECK_MSG(a >= 0 && a < static_cast<int>(ndim),
                    "axis " << axis << " out of range for ndim " << ndim);
  return a;
}

}  // namespace

// ---------------------------------------------------------------------------
// Creation
// ---------------------------------------------------------------------------

Tensor Tensor::zeros(const Shape& shape) {
  return from_storage(shape, Storage::zeros(tensor::numel(shape)));
}

Tensor Tensor::ones(const Shape& shape) { return full(shape, 1.0f); }

Tensor Tensor::full(const Shape& shape, float value) {
  return from_storage(shape, Storage::full(tensor::numel(shape), value));
}

Tensor Tensor::from_vector(const Shape& shape, std::vector<float> values) {
  return from_storage(shape, Storage::adopt(std::move(values)));
}

Tensor Tensor::from_storage(const Shape& shape, Storage data) {
  return Tensor(std::make_shared<TensorImpl>(shape, std::move(data)));
}

Tensor Tensor::randn(const Shape& shape, util::Rng& rng, float stddev) {
  Storage v = Storage::uninit(tensor::numel(shape));
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, stddev));
  return from_storage(shape, std::move(v));
}

Tensor Tensor::uniform(const Shape& shape, util::Rng& rng, float lo, float hi) {
  Storage v = Storage::uninit(tensor::numel(shape));
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return from_storage(shape, std::move(v));
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

float Tensor::item() const {
  COASTAL_CHECK_MSG(numel() == 1, "item() on tensor of " << numel() << " elems");
  return impl_->data[0];
}

// ---------------------------------------------------------------------------
// Autograd plumbing
// ---------------------------------------------------------------------------

Tensor& Tensor::set_requires_grad(bool rg) {
  COASTAL_CHECK_MSG(!impl_->grad_fn,
                    "requires_grad can only be set on leaf tensors");
  impl_->requires_grad = rg;
  return *this;
}

Tensor Tensor::grad() const {
  return impl_->grad ? Tensor(impl_->grad) : Tensor();
}

void Tensor::zero_grad() { impl_->grad.reset(); }

void Tensor::accumulate_grad(const Tensor& g) {
  COASTAL_CHECK(g.shape() == shape());
  if (!impl_->grad) {
    impl_->grad = g.detach().impl();
    return;
  }
  kernels::binary_same(kernels::BinOp::kAdd, impl_->grad->data.data(),
                       g.raw(), impl_->grad->data.data(), numel());
}

void Tensor::backward(const Tensor& seed) const {
  COASTAL_CHECK_MSG(impl_ != nullptr, "backward() on undefined tensor");
  // Topological order of impls reachable through grad_fn edges.
  std::vector<TensorImpl*> order;
  {
    std::unordered_set<TensorImpl*> visited;
    // Iterative DFS with explicit post-order.
    struct Frame {
      TensorImpl* impl;
      size_t next_child;
    };
    std::vector<Frame> stack;
    stack.push_back({impl_.get(), 0});
    visited.insert(impl_.get());
    while (!stack.empty()) {
      Frame& f = stack.back();
      Node* node = f.impl->grad_fn.get();
      const size_t nchildren = node ? node->parents.size() : 0;
      if (f.next_child < nchildren) {
        TensorImpl* child = node->parents[f.next_child++].get();
        if (child && !visited.count(child) && child->grad_fn) {
          visited.insert(child);
          stack.push_back({child, 0});
        }
      } else {
        order.push_back(f.impl);
        stack.pop_back();
      }
    }
  }

  std::unordered_map<TensorImpl*, Tensor> gradmap;
  {
    Tensor s = seed.defined() ? seed : Tensor::ones(shape());
    COASTAL_CHECK_MSG(s.shape() == shape(), "backward seed shape mismatch");
    if (!impl_->grad_fn) {
      // Root is itself a leaf; nothing to traverse.
      if (impl_->requires_grad) const_cast<Tensor*>(this)->accumulate_grad(s);
      return;
    }
    gradmap[impl_.get()] = s.detach();
  }

  NoGradGuard no_grad;
  // `order` is post-order (children before parents-of-graph == producers
  // before consumers? no: DFS from root descends to producers, so root is
  // last).  Reverse iteration visits the root first, then upstream.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* impl = *it;
    if (!impl->grad_fn) continue;
    auto found = gradmap.find(impl);
    if (found == gradmap.end()) continue;  // unused branch
    const Tensor g = found->second;
    std::vector<Tensor> pgrads = impl->grad_fn->backward(g);
    COASTAL_CHECK(pgrads.size() == impl->grad_fn->parents.size());
    for (size_t i = 0; i < pgrads.size(); ++i) {
      if (!pgrads[i].defined()) continue;
      TensorImpl* parent = impl->grad_fn->parents[i].get();
      if (parent->grad_fn) {
        add_into(gradmap[parent], pgrads[i]);
      } else if (parent->requires_grad) {
        Tensor(impl->grad_fn->parents[i]).accumulate_grad(pgrads[i]);
      }
    }
    gradmap.erase(found);  // free as we go
  }
}

Tensor Tensor::detach() const {
  return from_storage(shape(), Storage::copy_of(raw(), numel()));
}

// ---------------------------------------------------------------------------
// Elementwise binary ops with broadcasting
// ---------------------------------------------------------------------------

namespace {

/// -x, outside the graph: the sub and div backwards negate gradients,
/// which run with recording off.
Tensor neg(const Tensor& x) {
  Storage out = Storage::uninit(x.numel());
  kernels::map(x.raw(), out.data(), x.numel(), 1,
               [](const float* in, float* o, int64_t n) {
                 for (int64_t i = 0; i < n; ++i) o[i] = -in[i];
               });
  return Tensor::from_storage(x.shape(), std::move(out));
}

Storage broadcast_apply(const Tensor& a, const Tensor& b,
                        const Shape& out_shape, kernels::BinOp op) {
  Storage out = Storage::uninit(tensor::numel(out_shape));
  if (a.shape() == b.shape()) {
    kernels::binary_same(op, a.raw(), b.raw(), out.data(), out.size());
    return out;
  }
  const Shape sa = broadcast_strides(a.shape(), out_shape);
  const Shape sb = broadcast_strides(b.shape(), out_shape);
  kernels::binary_broadcast(op, a.raw(), b.raw(), out.data(), out_shape, sa,
                            sb);
  return out;
}

}  // namespace

Tensor Tensor::add(const Tensor& o) const {
  const Shape out_shape = broadcast_shapes(shape(), o.shape());
  auto out = broadcast_apply(*this, o, out_shape, kernels::BinOp::kAdd);
  const Shape sa = shape(), sb = o.shape();
  return make_result(out_shape, std::move(out), "add", {*this, o},
                     [sa, sb](const Tensor& g) -> std::vector<Tensor> {
                       return {g.sum_to(sa), g.sum_to(sb)};
                     });
}

Tensor Tensor::sub(const Tensor& o) const {
  const Shape out_shape = broadcast_shapes(shape(), o.shape());
  auto out = broadcast_apply(*this, o, out_shape, kernels::BinOp::kSub);
  const Shape sa = shape(), sb = o.shape();
  return make_result(out_shape, std::move(out), "sub", {*this, o},
                     [sa, sb](const Tensor& g) -> std::vector<Tensor> {
                       return {g.sum_to(sa), neg(g).sum_to(sb)};
                     });
}

Tensor Tensor::mul(const Tensor& o) const {
  const Shape out_shape = broadcast_shapes(shape(), o.shape());
  auto out = broadcast_apply(*this, o, out_shape, kernels::BinOp::kMul);
  Tensor a = *this, b = o;
  return make_result(out_shape, std::move(out), "mul", {a, b},
                     [a, b](const Tensor& g) -> std::vector<Tensor> {
                       Tensor ga = g.mul(b).sum_to(a.shape());
                       Tensor gb = g.mul(a).sum_to(b.shape());
                       return {ga, gb};
                     });
}

Tensor Tensor::div(const Tensor& o) const {
  const Shape out_shape = broadcast_shapes(shape(), o.shape());
  auto out = broadcast_apply(*this, o, out_shape, kernels::BinOp::kDiv);
  Tensor a = *this, b = o;
  return make_result(
      out_shape, std::move(out), "div", {a, b},
      [a, b](const Tensor& g) -> std::vector<Tensor> {
        Tensor ga = g.div(b).sum_to(a.shape());
        Tensor gb = neg(g.mul(a).div(b.mul(b))).sum_to(b.shape());
        return {ga, gb};
      });
}

// ---------------------------------------------------------------------------
// Elementwise unary ops
// ---------------------------------------------------------------------------

namespace {

/// Relative per-element cost hint for parallel chunking: transcendental
/// unary ops are worth parallelizing at smaller sizes than plain
/// arithmetic.
constexpr int64_t kUnaryCost = 8;

template <typename FwdFn, typename BwdFn>
Tensor unary_op(const Tensor& x, const char* name, FwdFn fwd, BwdFn bwd) {
  Storage out = Storage::uninit(x.numel());
  kernels::map(x.raw(), out.data(), x.numel(), kUnaryCost,
               [fwd](const float* in, float* o, int64_t n) {
                 for (int64_t i = 0; i < n; ++i) o[i] = fwd(in[i]);
               });
  Tensor saved_x = x;
  Tensor result = make_result(
      x.shape(), std::move(out), name, {x},
      [saved_x, bwd](const Tensor& g) -> std::vector<Tensor> {
        Storage gx = Storage::uninit(g.numel());
        const float* pg = g.raw();
        const float* px = saved_x.raw();
        kernels::map(px, gx.data(), g.numel(), kUnaryCost,
                     [bwd, pg, px](const float* in, float* o, int64_t n) {
                       const int64_t base = in - px;
                       for (int64_t i = 0; i < n; ++i)
                         o[i] = bwd(pg[base + i], in[i]);
                     });
        return {Tensor::from_storage(saved_x.shape(), std::move(gx))};
      });
  return result;
}

}  // namespace

Tensor Tensor::add_scalar(float s) const {
  return unary_op(*this, "add_scalar", [s](float x) { return x + s; },
                  [](float g, float) { return g; });
}

Tensor Tensor::mul_scalar(float s) const {
  return unary_op(*this, "mul_scalar", [s](float x) { return x * s; },
                  [s](float g, float) { return g * s; });
}

Tensor Tensor::sqrt() const {
  return unary_op(*this, "sqrt", [](float x) { return std::sqrt(x); },
                  [](float g, float x) {
                    return g * 0.5f / std::sqrt(x);
                  });
}

Tensor Tensor::gelu() const {
  Storage out = Storage::uninit(numel());
  kernels::gelu(raw(), out.data(), numel());
  Tensor x = *this;
  return make_result(shape(), std::move(out), "gelu", {x},
                     [x](const Tensor& g) -> std::vector<Tensor> {
                       Storage gx = Storage::uninit(g.numel());
                       kernels::gelu_backward(g.raw(), x.raw(), gx.data(),
                                              g.numel());
                       return {Tensor::from_storage(x.shape(), std::move(gx))};
                     });
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Tensor Tensor::sum() const {
  double acc = 0.0;
  for (float v : impl_->data) acc += v;
  const Shape in_shape = shape();
  return make_result({1}, Storage::full(1, static_cast<float>(acc)), "sum",
                     {*this},
                     [in_shape](const Tensor& g) -> std::vector<Tensor> {
                       return {broadcast_to(
                           g.reshape(Shape(in_shape.size(), 1)), in_shape)};
                     });
}

Tensor Tensor::mean() const { return sum().mul_scalar(1.0f / static_cast<float>(numel())); }

Tensor Tensor::sum_axis(int axis, bool keepdim) const {
  const int a = normalize_axis(axis, ndim());
  const Shape in = shape();
  Shape keep = in;
  keep[static_cast<size_t>(a)] = 1;
  Storage out = Storage::uninit(tensor::numel(keep));
  kernels::sum_to(raw(), in, out.data(), keep);

  Shape out_shape = keep;
  if (!keepdim) out_shape.erase(out_shape.begin() + a);
  if (out_shape.empty()) out_shape = {1};
  return make_result(out_shape, std::move(out), "sum_axis", {*this},
                     [in, keep](const Tensor& g) -> std::vector<Tensor> {
                       return {broadcast_to(g.reshape(keep), in)};
                     });
}

Tensor Tensor::mean_axis(int axis, bool keepdim) const {
  const int a = normalize_axis(axis, ndim());
  const float inv = 1.0f / static_cast<float>(shape()[static_cast<size_t>(a)]);
  return sum_axis(axis, keepdim).mul_scalar(inv);
}

Tensor Tensor::sum_to(const Shape& target) const {
  if (shape() == target) return *this;
  Storage out = Storage::uninit(tensor::numel(target));
  kernels::sum_to(raw(), shape(), out.data(), target);
  return Tensor::from_storage(target, std::move(out));
}

// ---------------------------------------------------------------------------
// Matmul
// ---------------------------------------------------------------------------

namespace {

Shape batch_dims(const Shape& s) {
  return Shape(s.begin(), s.end() - 2);
}

}  // namespace

Tensor Tensor::matmul(const Tensor& o) const {
  COASTAL_CHECK_MSG(ndim() >= 2 && o.ndim() >= 2,
                    "matmul needs >=2-d operands");
  const int64_t m = shape()[ndim() - 2];
  const int64_t k = shape()[ndim() - 1];
  const int64_t k2 = o.shape()[o.ndim() - 2];
  const int64_t n = o.shape()[o.ndim() - 1];
  COASTAL_CHECK_MSG(k == k2, "matmul inner dims " << k << " vs " << k2);

  const Shape batch = broadcast_shapes(batch_dims(shape()), batch_dims(o.shape()));
  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(n);

  const int64_t nbatch = tensor::numel(batch);
  Storage out = Storage::zeros(nbatch * m * n);

  // Per-batch offsets honoring broadcast (stride 0 on broadcast axes).
  const Shape abatch = batch_dims(shape());
  const Shape bbatch = batch_dims(o.shape());
  const Shape astr = broadcast_strides(abatch, batch);
  const Shape bstr = broadcast_strides(bbatch, batch);
  // Flatten broadcast batch coordinates to per-entry operand offsets, then
  // hand the whole problem to the blocked batched kernel (parallel over
  // batch entries and row blocks).  The offset tables are per-thread
  // workspace scratch — rebuilt each call into retained capacity, done
  // with before this function returns (gemm_batched keeps no reference).
  Workspace& ws = workspace();
  std::vector<int64_t>& a_off = ws.off_a;
  std::vector<int64_t>& b_off = ws.off_b;
  a_off.assign(static_cast<size_t>(nbatch), 0);
  b_off.assign(static_cast<size_t>(nbatch), 0);
  if (nbatch > 0 && !batch.empty()) {
    CoordIter it(batch);
    size_t bi = 0;
    do {
      a_off[bi] = dot_strides(it.coords(), astr) * m * k;
      b_off[bi] = dot_strides(it.coords(), bstr) * k * n;
      ++bi;
    } while (it.next());
  }
  kernels::gemm_batched(raw(), o.raw(), out.data(), m, k, n, nbatch, a_off,
                        b_off);

  Tensor a = *this, b = o;
  return make_result(out_shape, std::move(out), "matmul", {a, b},
                     [a, b](const Tensor& g) -> std::vector<Tensor> {
                       Tensor ga = g.matmul(b.transpose_last()).sum_to(a.shape());
                       Tensor gb = a.transpose_last().matmul(g).sum_to(b.shape());
                       return {ga, gb};
                     });
}

Tensor Tensor::transpose_last() const {
  COASTAL_CHECK(ndim() >= 2);
  std::vector<size_t> perm(ndim());
  for (size_t i = 0; i < ndim(); ++i) perm[i] = i;
  std::swap(perm[ndim() - 2], perm[ndim() - 1]);
  return permute(perm);
}

// ---------------------------------------------------------------------------
// Shape ops
// ---------------------------------------------------------------------------

namespace {

Shape resolve_reshape(const Shape& in, const Shape& new_shape) {
  Shape resolved = new_shape;
  int64_t known = 1;
  int infer = -1;
  for (size_t i = 0; i < resolved.size(); ++i) {
    if (resolved[i] == -1) {
      COASTAL_CHECK_MSG(infer < 0, "reshape: more than one -1");
      infer = static_cast<int>(i);
    } else {
      known *= resolved[i];
    }
  }
  if (infer >= 0) {
    COASTAL_CHECK_MSG(known != 0, "reshape " << shape_str(in) << " -> "
                                             << shape_str(new_shape)
                                             << ": -1 is ambiguous next to "
                                                "a zero-sized dimension");
    resolved[static_cast<size_t>(infer)] = tensor::numel(in) / known;
  }
  COASTAL_CHECK_MSG(tensor::numel(resolved) == tensor::numel(in),
                    "reshape " << shape_str(in) << " -> "
                               << shape_str(resolved));
  return resolved;
}

}  // namespace

Tensor Tensor::reshape(const Shape& new_shape) const& {
  Shape resolved = resolve_reshape(shape(), new_shape);
  const Shape in = shape();
  obs::count_move(obs::Move::kReshape,
                  numel() * static_cast<int64_t>(sizeof(float)));
  Storage out = Storage::copy_of(raw(), numel());
  return make_result(std::move(resolved), std::move(out), "reshape", {*this},
                     [in](const Tensor& g) -> std::vector<Tensor> {
                       return {g.reshape(in)};
                     });
}

Tensor Tensor::reshape(const Shape& new_shape) && {
  if (impl_.use_count() != 1 || impl_->grad_fn || impl_->requires_grad ||
      impl_->grad) {
    return static_cast<const Tensor&>(*this).reshape(new_shape);
  }
  impl_->shape = resolve_reshape(shape(), new_shape);
  return Tensor(std::move(impl_));
}

Tensor Tensor::permute(const std::vector<size_t>& perm) const {
  COASTAL_CHECK(perm.size() == ndim());
  Shape out_shape(ndim());
  for (size_t i = 0; i < ndim(); ++i) out_shape[i] = shape()[perm[i]];
  const Shape in_str = strides_of(shape());
  Shape gather_str(ndim());
  for (size_t i = 0; i < ndim(); ++i) gather_str[i] = in_str[perm[i]];

  // The kernel picks the route (memcpy, tiled transpose, table gather).
  Storage out = Storage::uninit(numel());
  kernels::permute_gather(raw(), out.data(), out_shape, gather_str);

  std::vector<size_t> inv(ndim());
  for (size_t i = 0; i < ndim(); ++i) inv[perm[i]] = i;
  return make_result(out_shape, std::move(out), "permute", {*this},
                     [inv](const Tensor& g) -> std::vector<Tensor> {
                       return {g.permute(inv)};
                     });
}

Tensor Tensor::slice(int axis, int64_t start, int64_t len) const {
  const int a = normalize_axis(axis, ndim());
  const Shape in = shape();
  COASTAL_CHECK_MSG(start >= 0 && start + len <= in[static_cast<size_t>(a)],
                    "slice [" << start << "," << start + len << ") out of dim "
                              << in[static_cast<size_t>(a)]);
  Shape out_shape = in;
  out_shape[static_cast<size_t>(a)] = len;
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < a; ++i) outer *= in[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(a) + 1; i < in.size(); ++i) inner *= in[i];
  const int64_t dlen = in[static_cast<size_t>(a)];

  Storage out = Storage::uninit(outer * len * inner);
  obs::count_move(obs::Move::kSlice,
                  out.size() * static_cast<int64_t>(sizeof(float)));
  const float* p = raw();
  for (int64_t o = 0; o < outer; ++o)
    std::memcpy(out.data() + o * len * inner,
                p + (o * dlen + start) * inner,
                static_cast<size_t>(len * inner) * sizeof(float));

  // Backward: the gradient back in place, zeros around it.
  return make_result(
      out_shape, std::move(out), "slice", {*this},
      [in, outer, inner, dlen, start, len](const Tensor& g)
          -> std::vector<Tensor> {
        Storage gx = Storage::zeros(tensor::numel(in));
        for (int64_t o = 0; o < outer; ++o)
          std::memcpy(gx.data() + (o * dlen + start) * inner,
                      g.raw() + o * len * inner,
                      static_cast<size_t>(len * inner) * sizeof(float));
        return {Tensor::from_storage(in, std::move(gx))};
      });
}

Tensor concat(const std::vector<Tensor>& parts, int axis) {
  COASTAL_CHECK(!parts.empty());
  const int a = normalize_axis(axis, parts[0].ndim());
  Shape out_shape = parts[0].shape();
  int64_t total = 0;
  for (const auto& t : parts) {
    COASTAL_CHECK(t.ndim() == parts[0].ndim());
    for (size_t i = 0; i < out_shape.size(); ++i) {
      if (static_cast<int>(i) != a)
        COASTAL_CHECK_MSG(t.shape()[i] == out_shape[i],
                          "concat shape mismatch on axis " << i);
    }
    total += t.shape()[static_cast<size_t>(a)];
  }
  out_shape[static_cast<size_t>(a)] = total;

  int64_t outer = 1, inner = 1;
  for (int i = 0; i < a; ++i) outer *= out_shape[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(a) + 1; i < out_shape.size(); ++i)
    inner *= out_shape[i];

  Storage out = Storage::uninit(tensor::numel(out_shape));
  obs::count_move(obs::Move::kConcat,
                  out.size() * static_cast<int64_t>(sizeof(float)));
  int64_t offset = 0;
  for (const auto& t : parts) {
    const int64_t dlen = t.shape()[static_cast<size_t>(a)];
    const float* p = t.raw();
    for (int64_t o = 0; o < outer; ++o)
      std::memcpy(out.data() + (o * total + offset) * inner,
                  p + o * dlen * inner,
                  static_cast<size_t>(dlen * inner) * sizeof(float));
    offset += dlen;
  }

  // Backward: slice the gradient back apart.
  std::vector<int64_t> lens;
  lens.reserve(parts.size());
  for (const auto& t : parts) lens.push_back(t.shape()[static_cast<size_t>(a)]);
  return make_result(out_shape, std::move(out), "concat", parts,
                     [a, lens](const Tensor& g) -> std::vector<Tensor> {
                       std::vector<Tensor> grads;
                       grads.reserve(lens.size());
                       int64_t off = 0;
                       for (int64_t len : lens) {
                         grads.push_back(g.slice(a, off, len));
                         off += len;
                       }
                       return grads;
                     });
}

Tensor gather(const Tensor& x, const View& v, Shape result_shape) {
  check_view_within(v, x.numel());
  const int64_t n = tensor::numel(v.shape);
  if (result_shape.empty()) result_shape = v.shape;
  COASTAL_CHECK_MSG(tensor::numel(result_shape) == n,
                    "gather: " << shape_str(v.shape) << " relabelled as "
                               << shape_str(result_shape));
  Storage out = Storage::uninit(n);
  kernels::permute_gather(x.raw() + v.offset, out.data(), v.shape, v.strides);
  const Shape in = x.shape();
  return make_result(
      std::move(result_shape), std::move(out), "gather", {x},
      [in, v, n](const Tensor& g) -> std::vector<Tensor> {
        // A bijective gather overwrites every element; a partial one
        // leaves the unread ones at zero.
        Storage gx = n == tensor::numel(in) ? Storage::uninit(n)
                                            : Storage::zeros(tensor::numel(in));
        kernels::permute_scatter(g.raw(), gx.data() + v.offset, v.shape,
                                 v.strides);
        return {Tensor::from_storage(in, std::move(gx))};
      });
}

RowPermutation::RowPermutation(std::vector<int64_t> table)
    : fwd(std::move(table)), inv(fwd.size(), -1) {
  for (size_t i = 0; i < fwd.size(); ++i) {
    const int64_t r = fwd[i];
    COASTAL_CHECK_MSG(r >= 0 && r < static_cast<int64_t>(fwd.size()) &&
                          inv[static_cast<size_t>(r)] < 0,
                      "RowPermutation: not a permutation at row " << i);
    inv[static_cast<size_t>(r)] = static_cast<int64_t>(i);
  }
}

Tensor gather_rows(const Tensor& x, std::shared_ptr<const RowPermutation> perm,
                   bool inverse, Shape result_shape) {
  const int64_t rows = static_cast<int64_t>(perm->fwd.size());
  const int64_t cols = x.ndim() ? x.shape().back() : 0;
  COASTAL_CHECK_MSG(rows > 0 && cols > 0 && x.numel() % (rows * cols) == 0,
                    "gather_rows: " << shape_str(x.shape()) << " is not [B, "
                                    << rows << ", C]");
  COASTAL_CHECK(tensor::numel(result_shape) == x.numel());
  Storage out = Storage::uninit(x.numel());
  const std::vector<int64_t>& table = inverse ? perm->inv : perm->fwd;
  kernels::gather_rows(x.raw(), out.data(), x.numel() / (rows * cols), rows,
                       cols, table.data());
  const Shape in = x.shape();
  return make_result(std::move(result_shape), std::move(out), "gather_rows",
                     {x},
                     [perm, inverse, in](const Tensor& g) -> std::vector<Tensor> {
                       return {gather_rows(g, perm, !inverse, in)};
                     });
}

// ---------------------------------------------------------------------------
// Fused NN ops
// ---------------------------------------------------------------------------

Tensor Tensor::softmax_lastdim() const {
  const int64_t cols = shape()[ndim() - 1];
  const int64_t rows = numel() / cols;
  Storage out = Storage::uninit(numel());
  kernels::softmax_rows(raw(), out.data(), rows, cols);

  if (!needs_graph({*this})) {
    // Inference: no backward stash — skip the output copy the training
    // path keeps (this used to double the op's allocation traffic).
    return from_storage(shape(), std::move(out));
  }
  Tensor saved_out =
      from_storage(shape(), Storage::copy_of(out.data(), numel()));
  return make_result(
      shape(), std::move(out), "softmax", {*this},
      [saved_out, rows, cols](const Tensor& g) -> std::vector<Tensor> {
        Storage gx = Storage::uninit(g.numel());
        kernels::softmax_backward_rows(g.raw(), saved_out.raw(), gx.data(),
                                       rows, cols);
        return {Tensor::from_storage(saved_out.shape(), std::move(gx))};
      });
}

Tensor Tensor::layer_norm(const Tensor& gamma, const Tensor& beta,
                          float eps) const {
  const int64_t cols = shape()[ndim() - 1];
  COASTAL_CHECK(gamma.numel() == cols && beta.numel() == cols);
  const int64_t rows = numel() / cols;

  Storage out = Storage::uninit(numel());
  if (!needs_graph({*this, gamma, beta})) {
    // Inference: xhat/invstd are pure autograd state — skip the stash
    // (no allocation and no stash stores at all).
    kernels::layer_norm_rows(raw(), gamma.raw(), beta.raw(), out.data(),
                             nullptr, nullptr, rows, cols, eps);
    return from_storage(shape(), std::move(out));
  }

  auto xhat = std::make_shared<std::vector<float>>(
      static_cast<size_t>(numel()));
  auto invstd = std::make_shared<std::vector<float>>(
      static_cast<size_t>(rows));
  kernels::layer_norm_rows(raw(), gamma.raw(), beta.raw(), out.data(),
                           xhat->data(), invstd->data(), rows, cols, eps);

  Tensor x = *this, gm = gamma;
  const Shape in_shape = shape();
  const Shape gshape = gamma.shape();
  return make_result(
      shape(), std::move(out), "layer_norm", {x, gamma, beta},
      [xhat, invstd, rows, cols, in_shape, gshape,
       gm](const Tensor& g) -> std::vector<Tensor> {
        Storage gx = Storage::uninit(rows * cols);
        Storage ggamma = Storage::zeros(cols);
        Storage gbeta = Storage::zeros(cols);
        kernels::layer_norm_backward_rows(g.raw(), gm.raw(), xhat->data(),
                                          invstd->data(), gx.data(),
                                          ggamma.data(), gbeta.data(), rows,
                                          cols);
        return {Tensor::from_storage(in_shape, std::move(gx)),
                Tensor::from_storage(gshape, std::move(ggamma)),
                Tensor::from_storage(gshape, std::move(gbeta))};
      });
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

Tensor custom_op(Shape shape, Storage data, const char* name,
                 std::vector<Tensor> parents,
                 std::function<std::vector<Tensor>(const Tensor&)> backward) {
  return make_result(std::move(shape), std::move(data), name,
                     std::move(parents), std::move(backward));
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  COASTAL_CHECK(pred.shape() == target.shape());
  Tensor diff = pred.sub(target);
  return diff.mul(diff).mean();
}

}  // namespace coastal::tensor
