#pragma once

/// \file kernels.hpp
/// Parallel, cache-blocked compute kernels backing the hot tensor ops.
///
/// Design rules shared by every kernel here:
///  * **Determinism across thread counts.**  Work is partitioned so that
///    each output element (and each reduction feeding it) is computed by
///    exactly one task with a thread-count-independent operation order.
///    Results are bitwise identical under `COASTAL_NUM_THREADS=1` and `=N`.
///  * **IEEE semantics.**  No value-dependent skips: NaN/Inf in either
///    operand propagates exactly as in the reference triple loop (the old
///    `if (a == 0.0f) continue;` shortcut is deliberately gone).
///  * **Cache blocking.**  GEMM runs Mc×Kc×Nc panels with a
///    register-blocked micro-kernel over packed A/B panels so the inner
///    loop streams contiguous memory; `transpose_last` uses a blocked
///    tile copy.
///
/// Threading is provided by `pool()`; kernels fall back to serial execution
/// for small problems (see KernelConfig thresholds) and when already
/// running inside a pool worker (no nested parallelism).
///
/// All transient kernel scratch (GEMM packing panels, offset tables, data
/// movement tables) lives in the per-thread `tensor::Workspace`
/// (storage.hpp): grow-only buffers reused across calls, so steady-state
/// kernel execution allocates nothing inside parallel_for tasks.

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/shape.hpp"

namespace coastal::par {
class ThreadPool;
}

namespace coastal::tensor::kernels {

/// Tuning knobs for the kernel layer.  `config()` is initialized once from
/// the environment and may be mutated by tests/benchmarks; kernels read it
/// at call time.
struct KernelConfig {
  /// Threads a dispatched loop runs on: the caller plus at most
  /// `num_threads - 1` pool workers.  Starts as `COASTAL_NUM_THREADS` (0
  /// when unset).  0 = hardware concurrency; 1 = serial.
  int num_threads = 0;

  /// Minimum cost units (`parallel_for`'s `total * cost_per_item`) a loop
  /// must carry before it is worth shipping to the pool.  0 = a grain
  /// measured on the host (see `parallel_for`); tests set 1 to force
  /// chunked dispatch.
  int64_t parallel_grain = 0;
};

KernelConfig& config();

/// Threads a dispatched loop runs on: `config().num_threads`, or hardware
/// concurrency when that is 0.
int resolved_threads();

/// The pool dispatched loops run on, sized once, on first use, to
/// `resolved_threads()` at that moment; a later, larger `num_threads` runs
/// on at most that many threads.
par::ThreadPool& pool();

/// Run `fn(lo, hi)` over [0, total), in parallel when the problem is big
/// enough and more than one thread is available — on the caller plus at
/// most `resolved_threads() - 1` pool workers, in
/// `ThreadPool::kOversubscribe` chunks per thread — serially otherwise.
/// Big enough: `total * cost_per_item` reaches `config().parallel_grain`
/// when that is set, else a grain measured once per process, on first use
/// — the smallest streaming elementwise loop (one cost unit per element)
/// that the pool runs at least twice as fast as the caller alone.  Chunk
/// boundaries are independent of thread count only in so far as each
/// index is processed exactly once — callers must keep any
/// reduction confined to a single index for determinism.
void parallel_for(int64_t total, int64_t cost_per_item,
                  const std::function<void(int64_t, int64_t)>& fn);

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// C[m,n] += A[m,k] · B[k,n], row-major, serial.  Cache-blocked with packed
/// panels; falls back to a naive loop at or below 4096 multiply-adds.
void gemm(const float* A, const float* B, float* C, int64_t m, int64_t k,
          int64_t n);

/// Batched GEMM: for each batch entry i, C + i·m·n += (A + a_off[i]) ·
/// (B + b_off[i]).  Parallelized over (batch × row-block) tasks; each
/// output row is produced by exactly one task, so results are bitwise
/// independent of thread count.  Offsets encode broadcast (repeated
/// entries are fine).  Each *distinct* B operand is packed into panels
/// exactly once per call, in a shared buffer all row-block tasks consume —
/// repacking per task used to dominate wide-N problems split over many row
/// blocks.  The packed layout (and thus every accumulation order) is
/// byte-identical to the historic per-task packing.
void gemm_batched(const float* A, const float* B, float* C, int64_t m,
                  int64_t k, int64_t n, int64_t nbatch,
                  const std::vector<int64_t>& a_off,
                  const std::vector<int64_t>& b_off);

// ---------------------------------------------------------------------------
// Row-wise fused ops (softmax / layer norm); parallel over rows.
// ---------------------------------------------------------------------------

/// y[r,:] = softmax(x[r,:]).  Lane-strided max/sum reductions and a
/// branch-free polynomial expf (the exp loop vectorizes; libm expf kept
/// this kernel scalar).  Reduction association is fixed at compile time,
/// so rows are bitwise identical across hosts and thread counts; NaN/±inf
/// rows poison exactly as with libm expf.
void softmax_rows(const float* x, float* y, int64_t rows, int64_t cols);

/// gx = softmax backward from output y and upstream g.  The per-row
/// g·y dot uses the same fixed lane-strided association as softmax_rows
/// (the serial dependence chain kept this kernel scalar), so rows are
/// bitwise identical across hosts and thread counts.
void softmax_backward_rows(const float* g, const float* y, float* gx,
                           int64_t rows, int64_t cols);

/// Layer norm over rows; writes normalized activations to `y`, and the
/// backward stash `xhat` (normalized pre-affine) and `invstd` per row —
/// both optional: pass nullptr (inference does) and the stash stores are
/// redirected into one L1-resident workspace row, eliminating a
/// numel-sized stream while keeping the *same* inner loop as the stashed
/// path (so a checkpoint region's no-grad initial pass stays bitwise
/// identical to its recompute under any FMA-contraction choice).
/// Single pass over x per row (sum + sum-of-squares in double).
void layer_norm_rows(const float* x, const float* gamma, const float* beta,
                     float* y, float* xhat, float* invstd, int64_t rows,
                     int64_t cols, float eps);

/// Layer norm backward.  `gx` is [rows, cols]; `ggamma`/`gbeta` are [cols]
/// and must be zero-initialized (column reductions are accumulated rowwise
/// in a fixed order).  The per-row mean(dxhat) / mean(dxhat·xhat)
/// reductions accumulate in double over fixed lane strides (serial
/// dependence chains kept them scalar), so rows stay bitwise identical
/// across hosts and thread counts.
void layer_norm_backward_rows(const float* g, const float* gamma,
                              const float* xhat, const float* invstd,
                              float* gx, float* ggamma, float* gbeta,
                              int64_t rows, int64_t cols);

/// Batch normalization over rows of `cols` contiguous channels: row i
/// (row-major over `row_dims`) is read at x + Σ c·x_strides and written
/// at y + Σ c·y_strides, and rows are visited in that order.  The rows
/// split into `groups` consecutive runs of the order, each normalized by
/// its own statistics; passing `run_mean`/`run_var` normalizes by those
/// instead (no reduction).  Per channel this is exactly the composed chain
///   mean = (Σ x)·(1/n);  c = x − mean;  var = (Σ c·c)·(1/n);
///   y = c / sqrt(var + eps) · gamma + beta,
/// each sum accumulated in float over rows in visit order and every
/// product rounded before it is added (the file is built without FMA
/// contraction), so the result is bitwise that of the separate ops.
void batch_norm(const float* x, const Shape& x_strides, float* y,
                const Shape& y_strides, const Shape& row_dims, int64_t cols,
                int64_t groups, const float* gamma, const float* beta,
                float eps, const float* run_mean, const float* run_var);

// ---------------------------------------------------------------------------
// Data movement
// ---------------------------------------------------------------------------

/// dst[b][j][i] = src[b][i][j] for each of `nbatch` row-major [rows, cols]
/// matrices — the dominant `transpose_last`/`permute` case.  Blocked tile
/// copy, parallel over batches and row tiles.
void transpose_last2(const float* src, float* dst, int64_t nbatch,
                     int64_t rows, int64_t cols);

/// Permute gather: out[k] = src[offset(coords_of(k))] where offsets
/// follow `gather_strides` over `out_shape`.  The one place that picks the
/// data-movement path: size-1 axes are dropped and axes contiguous in the
/// source merged, then an identity is a memcpy, a batched 2-D transpose
/// goes to `transpose_last2`, and anything else gathers a trailing block
/// of axes through an offset table built once per call (workspace
/// scratch), parallel over the remaining outer index.  Pure copies: the
/// output is bitwise that of the naive gather on every route.  Counted as
/// an `obs::Move::kPermute` when profiling.
void permute_gather(const float* src, float* dst, const Shape& out_shape,
                    const Shape& gather_strides);

/// The inverse move, same routes: dst[offset(coords_of(k))] = src[k].
/// Destinations must not repeat; dst elements no offset reaches are left
/// untouched.
void permute_scatter(const float* src, float* dst, const Shape& shape,
                     const Shape& scatter_strides);

/// Row gather through a table: for each of `batch` blocks of `rows` rows
/// of `cols` floats, dst row i = src row table[i] — the window partition
/// and reverse, whose cyclic shift lives in the table.  Counted as an
/// `obs::Move::kWindow` when profiling.
void gather_rows(const float* src, float* dst, int64_t batch, int64_t rows,
                 int64_t cols, const int64_t* table);

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

enum class BinOp { kAdd, kSub, kMul, kDiv };

/// out[i] = a[i] op b[i] over `n` contiguous elements, parallel.
void binary_same(BinOp op, const float* a, const float* b, float* out,
                 int64_t n);

/// Broadcast binary op: `sa`/`sb` are broadcast strides of a/b over
/// `out_shape` (0 on broadcast axes).  Axes are coalesced across out/a/b,
/// the last two walked as a 2-D block whose inner loop is specialized for
/// contiguous/broadcast operands; contiguous rows ∘ a shared row vector
/// runs as one flat loop per tile.  Each element sees the same float op
/// on the same inputs as the naive loop, so results are bitwise equal.
void binary_broadcast(BinOp op, const float* a, const float* b, float* out,
                      const Shape& out_shape, const Shape& sa,
                      const Shape& sb);

/// y[i] = GELU(x[i]) = 0.5·x·(1 + erf(x/√2)), with erf from a branch-free
/// rational polynomial (absolute GELU error ≤ 2e−6 on [−12, 12]; NaN, ±0
/// and ±Inf behave as with std::erf — see docs/kernels.md).  Vectorizes,
/// unlike a libm erff loop.
void gelu(const float* x, float* y, int64_t n);

/// gx[i] = g[i] · GELU'(x[i]) = g·(Φ(x) + x·φ(x)), with the same
/// polynomial erf for Φ and the softmax's polynomial expf for φ.
void gelu_backward(const float* g, const float* x, float* gx, int64_t n);

/// out[i] = fn(x[i]) in parallel chunks; `cost` is a relative per-element
/// cost hint (1 = cheap arithmetic, larger for transcendentals).
void map(const float* x, float* out, int64_t n, int64_t cost,
         const std::function<void(const float*, float*, int64_t)>& fn);

// ---------------------------------------------------------------------------
// Gradient reductions
// ---------------------------------------------------------------------------

/// dst = src summed onto `out_shape`, which must broadcast to `in_shape`
/// (right-aligned; each of its axes is 1 or the input's extent; checked).
/// Every dst element starts at 0.0f and adds its inputs in ascending src
/// order, so the result is bitwise the odometer loop
/// `dst[dot(coords, out_strides)] += src[k]`, Inf and NaN included (only
/// which NaN a sum of two NaNs keeps is the compiler's choice, there as
/// here).  Size-1 axes are dropped and neighbouring axes that are both
/// kept or both summed merged; the input is then walked once in flat
/// order: a kept innermost row is added into its output row (vectorizes),
/// a run of rows onto one short row in registers, and a summed innermost
/// run is folded into one element.  Serial and allocation-free once warm;
/// an empty input leaves dst all zeros.  The broadcast backward of every
/// elementwise op, `sum_axis` and the window-mask gradient run on it.
void sum_to(const float* src, const Shape& in_shape, float* dst,
            const Shape& out_shape);

}  // namespace coastal::tensor::kernels
