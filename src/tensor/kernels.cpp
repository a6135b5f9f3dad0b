#include "tensor/kernels.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <unordered_map>

#include "obs/profile.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/storage.hpp"

namespace coastal::tensor::kernels {

namespace {

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

KernelConfig& config() {
  static KernelConfig cfg = [] {
    KernelConfig c;
    c.num_threads = par::env_thread_override();
    return c;
  }();
  return cfg;
}

int resolved_threads() {
  const int n = config().num_threads;
  if (n > 0) return n;
  // hardware_concurrency() is a syscall on glibc; parallel_for consults
  // this on every kernel invocation, so resolve it once.
  static const int hw = std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

namespace {

/// The calibration loop: one element of a streaming elementwise loop per
/// cost unit, what `binary_same_apply` charges 1 for.  Out of line so the
/// timed stores cannot be elided.
[[gnu::noinline]] void unit_loop(const float* a, const float* b, float* out,
                                 int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

/// Median of `fn`'s wall time over a few runs, each after `touch` — which
/// leaves the inputs freshly written by the caller, as the op before a
/// real loop leaves them.
template <typename Touch, typename Fn>
double median_ns(Touch touch, Fn fn) {
  constexpr int kReps = 9;
  std::array<double, kReps> ns{};
  touch();
  fn();  // warm-up
  for (double& t : ns) {
    touch();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    t = std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count();
  }
  std::nth_element(ns.begin(), ns.begin() + kReps / 2, ns.end());
  return ns[kReps / 2];
}

/// Cost units from which a loop is worth shipping to the pool: the
/// smallest calibration loop, doubling from 4096 elements, that the pool
/// runs at least kMinSpeedup× faster than the caller alone.  This prices
/// the whole dispatch — enqueue, wake-up, and the cache lines the helpers
/// must pull from the caller and hand back — on the host it runs on.
/// Measured once, on first use; 2 × kMaxN when the pool never wins.
int64_t measured_grain() {
  // Twice, not just faster: loops just past a 1.25× break-even still lost
  // inside the B = 1 surrogate forward on a shared 4-vCPU host, where
  // helpers run a chunk of freshly written data several times slower than
  // the caller.
  constexpr double kMinSpeedup = 2.0;
  constexpr int64_t kMinN = 4096, kMaxN = int64_t{1} << 20;
  static const int64_t grain = [] {
    par::ThreadPool& pool = par::ThreadPool::global();
    std::vector<float> a(kMaxN, 1.0f), b(kMaxN, 2.0f), out(kMaxN);
    int64_t n = kMinN;
    for (; n <= kMaxN; n *= 2) {
      const auto touch = [&] {
        for (int64_t i = 0; i < n; ++i) a[i] += 1.0f;
      };
      const std::function<void(size_t, size_t)> chunk = [&](size_t lo,
                                                             size_t hi) {
        unit_loop(a.data() + lo, b.data() + lo, out.data() + lo,
                  static_cast<int64_t>(hi - lo));
      };
      const double serial = median_ns(
          touch, [&] { unit_loop(a.data(), b.data(), out.data(), n); });
      const double pooled = median_ns(touch, [&] {
        pool.parallel_for(0, static_cast<size_t>(n), chunk);
      });
      if (pooled * kMinSpeedup <= serial) break;
    }
    return n;
  }();
  return grain;
}

int64_t parallel_grain() {
  const int64_t fixed = config().parallel_grain;
  return fixed > 0 ? fixed : measured_grain();
}

}  // namespace

void parallel_for(int64_t total, int64_t cost_per_item,
                  const std::function<void(int64_t, int64_t)>& fn) {
  if (total <= 0) return;
  const KernelConfig& cfg = config();
  const int threads = resolved_threads();
  // Serial when: single thread, nested inside a pool worker or chunk
  // (waiting there would starve the pool), or too little work to pay for
  // the dispatch.
  if (threads <= 1 || par::ThreadPool::in_worker() ||
      total * std::max<int64_t>(1, cost_per_item) < parallel_grain()) {
    fn(0, total);
    return;
  }
  // The caller claims chunks alongside the helpers, so small chunks cost
  // only a counter increment each and bound what a late helper can hold up.
  const int64_t nchunks = std::min<int64_t>(
      total, static_cast<int64_t>(cfg.oversubscribe) * threads);
  par::ThreadPool::global().parallel_for(
      0, static_cast<size_t>(total),
      [&fn](size_t lo, size_t hi) {
        fn(static_cast<int64_t>(lo), static_cast<int64_t>(hi));
      },
      static_cast<size_t>(nchunks));
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

namespace {

// Register micro-tile.  Sized so the MR×NR accumulator block fits the
// architecture's vector register file (GCC/Clang fully unroll the fixed
// loops below and keep `acc` in registers).
#if defined(__AVX512F__)
constexpr int64_t kMR = 8, kNR = 32;
#elif defined(__AVX2__) || defined(__AVX__)
constexpr int64_t kMR = 6, kNR = 16;
#else
constexpr int64_t kMR = 4, kNR = 8;
#endif

/// Naive ikj kernel for problems too small to pack.  Unlike the historic
/// version this has no `a == 0.0f` skip: NaN/Inf in B always propagates.
void gemm_naive(const float* A, const float* B, float* C, int64_t m,
                int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = C + i * n;
    const float* arow = A + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float a = arow[kk];
      const float* brow = B + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += a * brow[j];
    }
  }
}

/// Pack an mb×kc block of A (leading dimension lda) into MR-row panels:
/// layout [panel][p][MR], zero-padded so the micro-kernel never branches.
void pack_a(const float* A, int64_t lda, int64_t mb, int64_t kc, float* out) {
  for (int64_t ir = 0; ir < mb; ir += kMR) {
    const int64_t m_eff = std::min(kMR, mb - ir);
    for (int64_t p = 0; p < kc; ++p) {
      int64_t i = 0;
      for (; i < m_eff; ++i) *out++ = A[(ir + i) * lda + p];
      for (; i < kMR; ++i) *out++ = 0.0f;
    }
  }
}

/// Pack a kc×nb block of B (leading dimension ldb) into NR-column panels:
/// layout [panel][p][NR], zero-padded.
void pack_b(const float* B, int64_t ldb, int64_t kc, int64_t nb, float* out) {
  for (int64_t jr = 0; jr < nb; jr += kNR) {
    const int64_t n_eff = std::min(kNR, nb - jr);
    for (int64_t p = 0; p < kc; ++p) {
      const float* row = B + p * ldb + jr;
      int64_t j = 0;
      for (; j < n_eff; ++j) *out++ = row[j];
      for (; j < kNR; ++j) *out++ = 0.0f;
    }
  }
}

/// C[0:mr, 0:nr] += Apanel · Bpanel over kc.  The accumulation order for a
/// given output element is p ascending — identical regardless of how the
/// surrounding macro loops are scheduled across threads.
void micro_kernel(int64_t kc, const float* __restrict Ap,
                  const float* __restrict Bp, float* __restrict C,
                  int64_t ldc, int64_t mr, int64_t nr) {
  float acc[kMR][kNR] = {};
  for (int64_t p = 0; p < kc; ++p, Ap += kMR, Bp += kNR) {
    for (int64_t i = 0; i < kMR; ++i) {
      const float a = Ap[i];
      for (int64_t j = 0; j < kNR; ++j) acc[i][j] += a * Bp[j];
    }
  }
  if (mr == kMR && nr == kNR) {
    for (int64_t i = 0; i < kMR; ++i) {
      float* crow = C + i * ldc;
      for (int64_t j = 0; j < kNR; ++j) crow[j] += acc[i][j];
    }
  } else {
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = C + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] += acc[i][j];
    }
  }
}

/// B-pack scratch is retained in the warm per-thread Workspace buffer
/// below this cap (a fresh allocation per call costs mmap + page faults,
/// measurable at microsecond GEMM sizes) and allocated per call above it,
/// so no thread permanently holds more than the cap.  A-panel scratch
/// (Workspace::gemm_apack) is Mc×Kc-bounded and always retained.
constexpr int64_t kBpackKeepFloats = int64_t{1} << 20;  // 4 MB

/// Selects the packing destination per the policy above — the single
/// definition both gemm_batched paths share, so their retention behavior
/// can never drift apart.  `warm` must be Workspace::gemm_bpack of the
/// packing thread: it is never resized while another buffer from the same
/// workspace (gemm_apack) is in flight, so pointers stay stable.
float* pack_scratch(int64_t need, std::vector<float>& warm,
                    std::vector<float>& local) {
  if (need <= kBpackKeepFloats) {
    warm.resize(static_cast<size_t>(need));
    return warm.data();
  }
  local.resize(static_cast<size_t>(need));
  return local.data();
}

/// Shared packed-B layout.  pack_b over the *full* row extent n lays NR
/// panels out in ascending column order, so for one kc-deep slice the
/// panel starting at column j0 (always an NR multiple) sits at offset
/// j0·kc; stacking the kc slices in ascending pc order puts slice pc0 at
/// offset pc0·npad with npad = ceil(n / NR)·NR.  One full B image is
/// k·npad floats.
///
/// Blocked GEMM over one row block: C[0:mb, :] += A[0:mb, :] · B, with
/// `Bp` the shared packed image of this entry's B.  Loop order pc → jc
/// keeps accumulation over k strictly ascending per output element (kc
/// panels are added in order), so splitting m across tasks never perturbs
/// results — and the panels themselves are byte-identical to the historic
/// per-task packing, so sharing them cannot either.
void gemm_rowblock(const float* A, const float* Bp, float* C, int64_t mb,
                   int64_t k, int64_t n, const KernelConfig& cfg) {
  const int64_t kc_max = std::max<int64_t>(kMR, cfg.gemm_kc);
  const int64_t nc_max =
      std::max<int64_t>(kNR, (cfg.gemm_nc / kNR) * kNR);
  const int64_t npad = ceil_div(n, kNR) * kNR;
  std::vector<float>& apack = workspace().gemm_apack;
  apack.resize(static_cast<size_t>(ceil_div(mb, kMR) * kMR * kc_max));
  for (int64_t pc = 0; pc < k; pc += kc_max) {
    const int64_t kc = std::min(kc_max, k - pc);
    pack_a(A + pc, k, mb, kc, apack.data());
    const float* bpc = Bp + pc * npad;
    for (int64_t jc = 0; jc < n; jc += nc_max) {
      const int64_t nc = std::min(nc_max, n - jc);
      for (int64_t jr = 0; jr < nc; jr += kNR) {
        const float* bp = bpc + (jc + jr) * kc;
        for (int64_t ir = 0; ir < mb; ir += kMR) {
          const float* ap = apack.data() + (ir / kMR) * kc * kMR;
          micro_kernel(kc, ap, bp, C + ir * n + jc + jr, n,
                       std::min(kMR, mb - ir), std::min(kNR, nc - jr));
        }
      }
    }
  }
}

}  // namespace

void gemm(const float* A, const float* B, float* C, int64_t m, int64_t k,
          int64_t n) {
  gemm_batched(A, B, C, m, k, n, 1, {0}, {0});
}

void gemm_batched(const float* A, const float* B, float* C, int64_t m,
                  int64_t k, int64_t n, int64_t nbatch,
                  const std::vector<int64_t>& a_off,
                  const std::vector<int64_t>& b_off) {
  if (m <= 0 || n <= 0 || nbatch <= 0) return;
  obs::ScopedStage obs_stage(obs::Stage::kGemm);
  const KernelConfig& cfg = config();
  // Path choice depends only on problem size and config — never on thread
  // count — so serial and parallel runs agree bitwise.
  if (k <= 0) return;  // C += A·B with empty inner dim is a no-op
  if (m * k * n <= cfg.gemm_small_madds) {
    parallel_for(nbatch, m * k * n, [&](int64_t lo, int64_t hi) {
      for (int64_t b = lo; b < hi; ++b) {
        gemm_naive(A + a_off[static_cast<size_t>(b)],
                   B + b_off[static_cast<size_t>(b)], C + b * m * n, m, k, n);
      }
    });
    return;
  }
  const int64_t mc = std::max<int64_t>(kMR, cfg.gemm_mc);
  const int64_t nblocks = ceil_div(m, mc);

  // Pack each *distinct* B operand once into a shared buffer before the
  // row-block sweep (previously every task repacked its own panels — for a
  // wide-N projection matmul split over many row blocks that repacking
  // dominated).  Packing is a pure strided copy with disjoint destinations,
  // so parallelizing it never reorders arithmetic, and the packed bytes are
  // identical to what each task used to produce locally.  The buffer is a
  // caller-thread thread_local so repeated GEMMs reuse warm pages (a fresh
  // heap allocation per call costs mmap + page faults at these sizes);
  // pool workers only read it, and it outlives the parallel_for below.
  const int64_t kc_max = std::max<int64_t>(kMR, cfg.gemm_kc);
  const int64_t npad = ceil_div(n, kNR) * kNR;
  // Distinct b_off values (first-seen order) and each entry's image index.
  // Fast paths cover the two dominant shapes — a single batch entry and a
  // fully broadcast B — before falling back to hashing.
  std::vector<int64_t> uniq;
  std::vector<int32_t> u_of;
  bool all_same = true;
  for (int64_t b = 1; b < nbatch && all_same; ++b)
    all_same = b_off[static_cast<size_t>(b)] == b_off[0];
  if (all_same) {
    uniq.push_back(b_off[0]);
  } else {
    u_of.resize(static_cast<size_t>(nbatch));
    std::unordered_map<int64_t, int32_t> seen;
    seen.reserve(static_cast<size_t>(nbatch));
    for (int64_t b = 0; b < nbatch; ++b) {
      auto [it, inserted] = seen.emplace(b_off[static_cast<size_t>(b)],
                                         static_cast<int32_t>(uniq.size()));
      if (inserted) uniq.push_back(b_off[static_cast<size_t>(b)]);
      u_of[static_cast<size_t>(b)] = it->second;
    }
  }
  const int64_t bstride = k * npad;  // one packed B image
  const int64_t kcblocks = ceil_div(k, kc_max);
  const int64_t need = static_cast<int64_t>(uniq.size()) * bstride;

  // Share the pre-packed images only when (a) some image is actually
  // consumed by more than one task and (b) the transient buffer — a padded
  // copy of every distinct B — stays within a sane bound.  Everything else
  // packs inside the task, one image at a time: the no-reuse case (every
  // entry distinct, one row block each — the unfused-attention shape at
  // small windows) would pay the full copy for zero saved repacks, and an
  // oversized pack would spike peak RSS by O(total B bytes) per call,
  // undoing the memory wins this engine exists for.
  constexpr int64_t kBpackSharedMaxFloats = int64_t{1} << 23;  // 32 MB
  const bool share = need <= kBpackSharedMaxFloats &&
                     nbatch * nblocks > static_cast<int64_t>(uniq.size());
  if (!share) {
    parallel_for(nbatch * nblocks, mc * k * n, [&](int64_t lo, int64_t hi) {
      std::vector<float> local;
      float* img = pack_scratch(bstride, workspace().gemm_bpack, local);
      int64_t packed_off = -1;  // b_off currently packed into img
      for (int64_t t = lo; t < hi; ++t) {
        const int64_t b = t / nblocks;
        const int64_t i0 = (t % nblocks) * mc;
        const int64_t mb = std::min(mc, m - i0);
        const int64_t off = b_off[static_cast<size_t>(b)];
        if (off != packed_off) {
          // Tasks are consecutive within a chunk, so same-entry row
          // blocks repack at most once per chunk.
          for (int64_t pc0 = 0; pc0 < k; pc0 += kc_max) {
            const int64_t kc = std::min(kc_max, k - pc0);
            pack_b(B + off + pc0 * n, n, kc, n, img + pc0 * npad);
          }
          packed_off = off;
        }
        gemm_rowblock(A + a_off[static_cast<size_t>(b)] + i0 * k, img,
                      C + b * m * n + i0 * n, mb, k, n, cfg);
      }
    });
    return;
  }

  // Caller-thread warm buffer: the row-block tasks below only read it
  // (and only resize their own gemm_apack), so the pointer stays stable
  // across the parallel_for.
  std::vector<float> bpack_local;
  float* bpack = pack_scratch(need, workspace().gemm_bpack, bpack_local);
  const int64_t pack_tasks = static_cast<int64_t>(uniq.size()) * kcblocks;
  if (pack_tasks == 1) {
    // Single image, single k-panel: skip the dispatch (tiny GEMMs sit in
    // the microsecond range where a std::function round-trip shows up).
    pack_b(B + uniq[0], n, k, n, bpack);
  } else {
    parallel_for(pack_tasks, kc_max * npad, [&](int64_t lo, int64_t hi) {
      for (int64_t t = lo; t < hi; ++t) {
        const int64_t u = t / kcblocks;
        const int64_t pc0 = (t % kcblocks) * kc_max;
        const int64_t kc = std::min(kc_max, k - pc0);
        pack_b(B + uniq[static_cast<size_t>(u)] + pc0 * n, n, kc, n,
               bpack + u * bstride + pc0 * npad);
      }
    });
  }

  parallel_for(nbatch * nblocks, mc * k * n, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const int64_t b = t / nblocks;
      const int64_t i0 = (t % nblocks) * mc;
      const int64_t mb = std::min(mc, m - i0);
      const int64_t u = all_same ? 0 : u_of[static_cast<size_t>(b)];
      gemm_rowblock(A + a_off[static_cast<size_t>(b)] + i0 * k,
                    bpack + u * bstride, C + b * m * n + i0 * n, mb, k, n,
                    cfg);
    }
  });
}

// ---------------------------------------------------------------------------
// Fused attention
// ---------------------------------------------------------------------------

namespace {

/// Branch-free expf shared by the fused attention forward/backward and
/// softmax_rows: exp(x) = 2^k · e^t
/// with k = rint(x·log2 e) and t = (x·log2 e − k)·ln 2 ∈ [−½ln 2, ½ln 2],
/// e^t by a degree-7 Taylor polynomial (relative error ≲ 2e−7).  Unlike
/// libm's expf this contains no call and no branch, so GCC/Clang
/// vectorize the epilogue loop it sits in — and expf is the single
/// hottest instruction stream in attention at Swin window sizes.
///
/// Semantics the online softmax relies on (arguments are ≤ 0 or NaN,
/// since the running row max has been subtracted):
///  * NaN in → NaN out (restored by the final select), so a poisoned
///    score row still poisons the row sum exactly like std::exp.
///  * x < −104 (where real expf is subnormal-or-zero) → exactly 0, so
///    −inf and −1e9 window-mask scores contribute zero weight; a fully
///    −inf row then finishes with sum 0 and 0/0 = NaN like the unfused
///    softmax, instead of renormalizing the clamp floor into a spurious
///    uniform distribution.
inline float fast_expf(float x) {
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2 = 0.6931471805599453f;
  const float z = std::min(std::max(x * kLog2e, -126.0f), 126.0f);
  const float kf = std::nearbyint(z);
  const float t = (z - kf) * kLn2;
  // e^t, Horner degree 7.
  float p = 1.0f / 5040.0f;
  p = p * t + 1.0f / 720.0f;
  p = p * t + 1.0f / 120.0f;
  p = p * t + 1.0f / 24.0f;
  p = p * t + 1.0f / 6.0f;
  p = p * t + 0.5f;
  p = p * t + 1.0f;
  p = p * t + 1.0f;
  // 2^k via exponent bits; kf ∈ [-126, 126] so the shift never overflows.
  // NaN input survives the clamp (std::max/min keep a NaN first operand),
  // and casting NaN to int is UB — route it through 0; the final select
  // restores NaN regardless, and this stays a branchless blend.
  const int32_t ki = static_cast<int32_t>(kf == kf ? kf : 0.0f);
  float two_k;
  const int32_t bits = (ki + 127) << 23;
  std::memcpy(&two_k, &bits, sizeof(two_k));
  float r = p * two_k;
  r = x < -104.0f ? 0.0f : r;  // flush the clamp floor to a true zero
  return x != x ? x : r;       // preserve NaN
}

/// Branch-free erff for the GELU kernels, the erf counterpart of
/// fast_expf: erf(x) = x·P(x²)/Q(x²) on the clamp [−4, 4], with an odd
/// degree-13 numerator and an even degree-8 denominator (the rational
/// minimax form Eigen and XLA use for float erf).  Absolute error ≲ 3e−7
/// against double-precision erf, which bounds GELU's absolute error by
/// 2e−6 on [−12, 12].  libm's erff is a call with range branches, which
/// kept the whole GELU loop scalar; this vectorizes.
///
/// Semantics:
///  * |x| ≥ 4 → exactly ±1 (erf(4) rounds to 1 in float), so ±Inf give
///    ±1 and GELU(−Inf) = −Inf·0 = NaN, as with std::erf.
///  * ±0 → ±0 (the odd numerator keeps the sign).
///  * NaN → NaN (std::max/min keep a NaN first operand through both
///    clamps, and the saturation select is false for NaN).
inline float fast_erff(float x) {
  const float c = std::min(std::max(x, -4.0f), 4.0f);
  const float c2 = c * c;
  float p = -2.72614225801306e-10f;
  p = p * c2 + 2.77068142495902e-08f;
  p = p * c2 - 2.10102402082508e-06f;
  p = p * c2 - 5.69250639462346e-05f;
  p = p * c2 - 7.34990630326855e-04f;
  p = p * c2 - 2.95459980854025e-03f;
  p = p * c2 - 1.60960333262415e-02f;
  float q = -1.45660718464996e-05f;
  q = q * c2 - 2.13374055278905e-04f;
  q = q * c2 - 1.68282697438203e-03f;
  q = q * c2 - 7.37332916720468e-03f;
  q = q * c2 - 1.42647390514189e-02f;
  const float r = std::min(std::max(c * p / q, -1.0f), 1.0f);
  return std::fabs(x) >= 4.0f ? std::copysign(1.0f, x) : r;
}

/// Reduction lane count for the block max / row sum below — one AVX-512
/// vector of floats.  Lane decomposition is fixed at compile time, so the
/// (re)association pattern is identical on every host and thread count.
constexpr int kAttnLanes = 16;

/// Lane-strided max of x[0, n) folded into `init`.  This association
/// pattern is a determinism-critical invariant shared by the fused
/// attention forward and softmax_rows — one definition so the reduction
/// trees can never drift apart.  NaN falls out of std::max (comparisons
/// with NaN are false), so callers relying on NaN poisoning must route it
/// through a later arithmetic step, as both users do via exp(NaN - mx).
inline float lane_max(const float* __restrict x, int64_t n, float init) {
  float part[kAttnLanes];
  for (int u = 0; u < kAttnLanes; ++u)
    part[u] = -std::numeric_limits<float>::infinity();
  int64_t i = 0;
  for (; i + kAttnLanes <= n; i += kAttnLanes)
    for (int u = 0; u < kAttnLanes; ++u)
      part[u] = std::max(part[u], x[i + u]);
  for (int u = 0; u < kAttnLanes; ++u) init = std::max(init, part[u]);
  for (; i < n; ++i) init = std::max(init, x[i]);
  return init;
}

/// Lane-strided sum of x[0, n): partial lanes fold in ascending lane
/// order, then the tail adds serially — same fixed association everywhere.
inline float lane_sum(const float* __restrict x, int64_t n) {
  float part[kAttnLanes] = {};
  int64_t i = 0;
  for (; i + kAttnLanes <= n; i += kAttnLanes)
    for (int u = 0; u < kAttnLanes; ++u) part[u] += x[i + u];
  float sum = 0.0f;
  for (int u = 0; u < kAttnLanes; ++u) sum += part[u];
  for (; i < n; ++i) sum += x[i];
  return sum;
}

/// Lane-strided dot product of a[0, n)·b[0, n) — same fixed association
/// family as lane_sum; the softmax backward's per-row Σ g·y reduction
/// (a serial fma chain before) vectorizes through this.
inline float lane_dot(const float* __restrict a, const float* __restrict b,
                      int64_t n) {
  float part[kAttnLanes] = {};
  int64_t i = 0;
  for (; i + kAttnLanes <= n; i += kAttnLanes)
    for (int u = 0; u < kAttnLanes; ++u) part[u] += a[i + u] * b[i + u];
  float sum = 0.0f;
  for (int u = 0; u < kAttnLanes; ++u) sum += part[u];
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// One (batch entry, query row block) of flash attention.  KV blocks are
/// consumed in ascending order and every reduction (over d in the score
/// dot, over lanes in the max/sum scans, over blocks in the recurrence)
/// has a fixed order, so the result is independent of how tasks are
/// scheduled across threads.
///
/// `D` is the compile-time head dim for the hot instantiations (the
/// d-loops fully unroll and the output accumulator row lives in vector
/// registers across the V sweep); `D == 0` is the runtime-d fallback.
/// `stats_out` (optional) receives the final (m, l) pair per query row —
/// the contract attention_fused_backward rebuilds probabilities from.
template <int D>
void attention_task(const float* Qb, const float* Kb, const float* Vb,
                    float* Ob, const float* mrow, int64_t rows, int64_t nkv,
                    int64_t rt_d, float scale, int64_t bc_max,
                    float* stats_out) {
  const int64_t d = D > 0 ? D : rt_d;
  // Per-thread Workspace scratch: packed K^T block, score block, and the
  // online-softmax state (row max, row sum, output accumulator).
  Workspace& ws = workspace();
  ws.attn_kt.resize(static_cast<size_t>(d * bc_max));
  ws.attn_scores.resize(static_cast<size_t>(rows * bc_max));
  ws.attn_stat.resize(static_cast<size_t>(rows * (d + 2)));
  float* kt = ws.attn_kt.data();
  float* s = ws.attn_scores.data();
  float* m = ws.attn_stat.data();         // running row max
  float* l = m + rows;                    // running row sum of exp
  float* acc = l + rows;                  // [rows, d] output accumulator
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  std::fill(m, m + rows, kNegInf);
  std::fill(l, l + rows, 0.0f);
  std::fill(acc, acc + rows * d, 0.0f);

  for (int64_t kv0 = 0; kv0 < nkv; kv0 += bc_max) {
    const int64_t bc = std::min(bc_max, nkv - kv0);
    // Pack the K block transposed so the score micro-kernel's inner loop
    // runs contiguously over j lanes (no reassociated reductions).
    for (int64_t j = 0; j < bc; ++j) {
      const float* krow = Kb + (kv0 + j) * d;
      for (int64_t dd = 0; dd < d; ++dd) kt[dd * bc + j] = krow[dd];
    }
    for (int64_t i = 0; i < rows; ++i) {
      float* __restrict srow = s + i * bc_max;
      std::fill(srow, srow + bc, 0.0f);
      const float* qrow = Qb + i * d;
      for (int64_t dd = 0; dd < d; ++dd) {
        const float qv = qrow[dd];
        const float* __restrict krow = kt + dd * bc;
        for (int64_t j = 0; j < bc; ++j) srow[j] += qv * krow[j];
      }
      if (mrow != nullptr) {
        const float* mk = mrow + i * nkv + kv0;
        for (int64_t j = 0; j < bc; ++j) srow[j] = srow[j] * scale + mk[j];
      } else {
        for (int64_t j = 0; j < bc; ++j) srow[j] *= scale;
      }
      // Online softmax: new block max, rescale old stats by
      // alpha = exp(m_old - m_new), fold in the fresh exponentials.
      // NaN scores fall out of std::max (as in softmax_rows) but poison
      // the row sum through exp(NaN), matching unfused semantics.  Max is
      // exact under any association, so the lane split never changes the
      // result on NaN-free rows (a NaN row is wholly poisoned anyway).
      const float bm = lane_max(srow, bc, m[i]);
      // While the running max is still -inf (every key so far masked with
      // -inf), subtract 0 instead: exp(-inf - -inf) would manufacture NaN
      // where the reference softmax — whose max spans the whole row —
      // yields weight 0.  A NaN score still reaches the exp (NaN - 0 is
      // NaN), so NaN rows stay poisoned; an all -inf row ends with
      // l = 0 and finishes as 0/0 = NaN, exactly like the reference.
      const float bm_eff = bm == kNegInf ? 0.0f : bm;
      const float alpha = fast_expf(m[i] - bm_eff);
      m[i] = bm;
      // Elementwise exp first (vectorizes: fast_expf is branch-free), then
      // the lane-strided row sum — a single serial chain would bottleneck
      // on add latency, and fusing the sum into the exp loop would
      // serialize that loop too.
      for (int64_t j = 0; j < bc; ++j) srow[j] = fast_expf(srow[j] - bm_eff);
      const float rowsum = lane_sum(srow, bc);
      l[i] = alpha * l[i] + rowsum;
      // acc[i, :] = alpha · acc[i, :] + P · V_block, with two independent
      // fma chains over j to hide the accumulator latency.  Chain results
      // combine in a fixed order, so this too is schedule-independent.
      float* __restrict arow = acc + i * d;
      const float* __restrict vblock = Vb + kv0 * d;
      if constexpr (D > 0) {
        float a0[D] = {}, a1[D] = {};
        int64_t j = 0;
        for (; j + 2 <= bc; j += 2) {
          const float p0 = srow[j], p1 = srow[j + 1];
          const float* v0 = vblock + j * D;
          const float* v1 = v0 + D;
          for (int dd = 0; dd < D; ++dd) a0[dd] += p0 * v0[dd];
          for (int dd = 0; dd < D; ++dd) a1[dd] += p1 * v1[dd];
        }
        if (j < bc) {
          const float p0 = srow[j];
          const float* v0 = vblock + j * D;
          for (int dd = 0; dd < D; ++dd) a0[dd] += p0 * v0[dd];
        }
        for (int dd = 0; dd < D; ++dd)
          arow[dd] = arow[dd] * alpha + (a0[dd] + a1[dd]);
      } else {
        for (int64_t dd = 0; dd < d; ++dd) arow[dd] *= alpha;
        for (int64_t j = 0; j < bc; ++j) {
          const float p = srow[j];
          const float* vrow = vblock + j * d;
          for (int64_t dd = 0; dd < d; ++dd) arow[dd] += p * vrow[dd];
        }
      }
    }
  }
  for (int64_t i = 0; i < rows; ++i) {
    const float inv = 1.0f / l[i];
    const float* arow = acc + i * d;
    float* orow = Ob + i * d;
    for (int64_t dd = 0; dd < d; ++dd) orow[dd] = arow[dd] * inv;
  }
  if (stats_out != nullptr) {
    // The raw running max (possibly -inf on a fully masked row) and the
    // exponential sum, exactly as the recurrence left them — the backward
    // reconstructs P[i, j] = fast_expf(S[i, j] - m) / l from these.
    for (int64_t i = 0; i < rows; ++i) {
      stats_out[i * 2] = m[i];
      stats_out[i * 2 + 1] = l[i];
    }
  }
}

}  // namespace

void attention_fused(const float* Q, const float* K, const float* V, float* O,
                     int64_t nbatch, int64_t nq, int64_t nkv, int64_t d,
                     float scale, const float* mask,
                     const std::vector<int64_t>& mask_off, float* stats) {
  if (nbatch <= 0 || nq <= 0 || nkv <= 0 || d <= 0) return;
  obs::ScopedStage obs_stage(obs::Stage::kAttention);
  const KernelConfig& cfg = config();
  const int64_t bq = std::max<int64_t>(1, cfg.attn_bq);
  const int64_t bc_max = std::min(std::max<int64_t>(1, cfg.attn_bkv), nkv);
  const int64_t qblocks = ceil_div(nq, bq);
  // Head-dim specialization: path choice depends only on d, never on
  // thread count, so serial and parallel runs stay bitwise identical.
  auto task = attention_task<0>;
  switch (d) {
    case 4: task = attention_task<4>; break;
    case 8: task = attention_task<8>; break;
    case 16: task = attention_task<16>; break;
    case 32: task = attention_task<32>; break;
    case 64: task = attention_task<64>; break;
    default: break;
  }
  parallel_for(nbatch * qblocks, 2 * bq * nkv * d, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const int64_t b = t / qblocks;
      const int64_t q0 = (t % qblocks) * bq;
      const int64_t rows = std::min(bq, nq - q0);
      const float* mrow =
          mask ? mask + mask_off[static_cast<size_t>(b)] + q0 * nkv : nullptr;
      task(Q + (b * nq + q0) * d, K + b * nkv * d, V + b * nkv * d,
           O + (b * nq + q0) * d, mrow, rows, nkv, d, scale, bc_max,
           stats ? stats + (b * nq + q0) * 2 : nullptr);
    }
  });
}

namespace {

/// One (batch × head) entry of the recompute-based flash backward.  KV
/// blocks stream in ascending order and query rows are visited in
/// ascending order inside each block, so every accumulation into
/// dQ/dK/dV has a fixed, thread-count-independent order.  The probability
/// block is rebuilt from the saved (m, l) with the same fast_expf the
/// forward used; P equals the forward's weights exactly when the row's
/// sweep fit one KV block, and to within float rounding otherwise (the
/// forward reaches a rescaled block's weight as exp(S − m_blk)·alpha, two
/// expf results multiplied, where this takes one call) — see the stats
/// contract in kernels.hpp.
template <int D>
void attention_bwd_task(const float* Qb, const float* Kb, const float* Vb,
                        const float* Ob, const float* dOb,
                        const float* statsb, const float* mrow, float* dQb,
                        float* dKb, float* dVb, int64_t nq, int64_t nkv,
                        int64_t rt_d, float scale, int64_t bc_max) {
  const int64_t d = D > 0 ? D : rt_d;
  // Per-thread Workspace scratch: packed Kᵀ/Vᵀ blocks, the rebuilt
  // probability row, the dO·Vᵀ row, and Δ_i = Σ_d dO∘O per query row.
  Workspace& ws = workspace();
  ws.attn_bwd_kt.resize(static_cast<size_t>(d * bc_max));
  ws.attn_bwd_vt.resize(static_cast<size_t>(d * bc_max));
  ws.attn_bwd_p.resize(static_cast<size_t>(bc_max));
  ws.attn_bwd_dp.resize(static_cast<size_t>(bc_max));
  ws.attn_bwd_delta.resize(static_cast<size_t>(nq));
  float* kt = ws.attn_bwd_kt.data();
  float* vt = ws.attn_bwd_vt.data();
  float* p = ws.attn_bwd_p.data();
  float* dp = ws.attn_bwd_dp.data();
  float* delta = ws.attn_bwd_delta.data();
  std::fill(dQb, dQb + nq * d, 0.0f);
  std::fill(dKb, dKb + nkv * d, 0.0f);
  std::fill(dVb, dVb + nkv * d, 0.0f);

  // Δ_i = Σ_d dO[i,:]·O[i,:] — the softmax-backward row dot (Σ_j P·dP) in
  // flash form, computable without P because O = P·V is already normalized.
  for (int64_t i = 0; i < nq; ++i) {
    const float* orow = Ob + i * d;
    const float* grow = dOb + i * d;
    float acc = 0.0f;
    for (int64_t dd = 0; dd < d; ++dd) acc += grow[dd] * orow[dd];
    delta[i] = acc;
  }

  for (int64_t kv0 = 0; kv0 < nkv; kv0 += bc_max) {
    const int64_t bc = std::min(bc_max, nkv - kv0);
    // Pack K and V transposed, exactly like the forward packs K: the score
    // and dO·Vᵀ micro-kernels then run contiguously over j lanes with
    // reductions over d in fixed ascending order.
    for (int64_t j = 0; j < bc; ++j) {
      const float* krow = Kb + (kv0 + j) * d;
      const float* vrow = Vb + (kv0 + j) * d;
      for (int64_t dd = 0; dd < d; ++dd) {
        kt[dd * bc + j] = krow[dd];
        vt[dd * bc + j] = vrow[dd];
      }
    }
    for (int64_t i = 0; i < nq; ++i) {
      const float* qrow = Qb + i * d;
      const float* grow = dOb + i * d;
      // Recompute the score row for this block (same arithmetic as the
      // forward), then rebuild probabilities from the saved statistics:
      // P = exp(S - m) / l.  A masked key (-inf or -1e9 bias) yields an
      // exact 0; a fully masked row carries m = -inf, l = 0 and poisons
      // its gradients with NaN exactly like the reference backward.
      std::fill(p, p + bc, 0.0f);
      for (int64_t dd = 0; dd < d; ++dd) {
        const float qv = qrow[dd];
        const float* __restrict krow = kt + dd * bc;
        float* __restrict prow = p;
        for (int64_t j = 0; j < bc; ++j) prow[j] += qv * krow[j];
      }
      if (mrow != nullptr) {
        const float* mk = mrow + i * nkv + kv0;
        for (int64_t j = 0; j < bc; ++j) p[j] = p[j] * scale + mk[j];
      } else {
        for (int64_t j = 0; j < bc; ++j) p[j] *= scale;
      }
      const float mi = statsb[i * 2];
      const float inv_l = 1.0f / statsb[i * 2 + 1];
      for (int64_t j = 0; j < bc; ++j)
        p[j] = fast_expf(p[j] - mi) * inv_l;
      // dP = dO · Vᵀ over this block.
      std::fill(dp, dp + bc, 0.0f);
      for (int64_t dd = 0; dd < d; ++dd) {
        const float gv = grow[dd];
        const float* __restrict vrow = vt + dd * bc;
        float* __restrict dprow = dp;
        for (int64_t j = 0; j < bc; ++j) dprow[j] += gv * vrow[j];
      }
      // dS = P ∘ (dP - Δ_i) · scale, folded straight into the three
      // gradient accumulations — dS itself never exists as a row.
      const float di = delta[i];
      if constexpr (D > 0) {
        float dq[D] = {};
        for (int64_t j = 0; j < bc; ++j) {
          const float pj = p[j];
          const float ds = pj * (dp[j] - di) * scale;
          const float* krow = Kb + (kv0 + j) * D;
          float* dkrow = dKb + (kv0 + j) * D;
          float* dvrow = dVb + (kv0 + j) * D;
          for (int dd = 0; dd < D; ++dd) dq[dd] += ds * krow[dd];
          for (int dd = 0; dd < D; ++dd) dkrow[dd] += ds * qrow[dd];
          for (int dd = 0; dd < D; ++dd) dvrow[dd] += pj * grow[dd];
        }
        float* dqrow = dQb + i * D;
        for (int dd = 0; dd < D; ++dd) dqrow[dd] += dq[dd];
      } else {
        float* dqrow = dQb + i * d;
        for (int64_t j = 0; j < bc; ++j) {
          const float pj = p[j];
          const float ds = pj * (dp[j] - di) * scale;
          const float* krow = Kb + (kv0 + j) * d;
          float* dkrow = dKb + (kv0 + j) * d;
          float* dvrow = dVb + (kv0 + j) * d;
          for (int64_t dd = 0; dd < d; ++dd) dqrow[dd] += ds * krow[dd];
          for (int64_t dd = 0; dd < d; ++dd) dkrow[dd] += ds * qrow[dd];
          for (int64_t dd = 0; dd < d; ++dd) dvrow[dd] += pj * grow[dd];
        }
      }
    }
  }
}

}  // namespace

void attention_fused_backward(const float* Q, const float* K, const float* V,
                              const float* O, const float* dO,
                              const float* stats, float* dQ, float* dK,
                              float* dV, int64_t nbatch, int64_t nq,
                              int64_t nkv, int64_t d, float scale,
                              const float* mask,
                              const std::vector<int64_t>& mask_off) {
  if (nbatch <= 0 || nq <= 0 || nkv <= 0 || d <= 0) return;
  obs::ScopedStage obs_stage(obs::Stage::kAttention);
  const KernelConfig& cfg = config();
  const int64_t bc_max = std::min(std::max<int64_t>(1, cfg.attn_bkv), nkv);
  // Head-dim specialization mirrors the forward (path depends only on d).
  auto task = attention_bwd_task<0>;
  switch (d) {
    case 4: task = attention_bwd_task<4>; break;
    case 8: task = attention_bwd_task<8>; break;
    case 16: task = attention_bwd_task<16>; break;
    case 32: task = attention_bwd_task<32>; break;
    case 64: task = attention_bwd_task<64>; break;
    default: break;
  }
  // One task per (batch × head) entry: dK/dV rows accumulate over *query*
  // rows, so splitting queries across tasks would either race or need a
  // deterministic reduction tree.  Batch × heads is the natural grain for
  // training workloads (B · nW · heads entries) and keeps every gradient
  // element owned by exactly one task.
  parallel_for(nbatch, 5 * nq * nkv * d, [&](int64_t lo, int64_t hi) {
    for (int64_t b = lo; b < hi; ++b) {
      const float* mrow =
          mask ? mask + mask_off[static_cast<size_t>(b)] : nullptr;
      task(Q + b * nq * d, K + b * nkv * d, V + b * nkv * d, O + b * nq * d,
           dO + b * nq * d, stats + b * nq * 2, mrow, dQ + b * nq * d,
           dK + b * nkv * d, dV + b * nkv * d, nq, nkv, d, scale, bc_max);
    }
  });
}

// ---------------------------------------------------------------------------
// Softmax / layer norm
// ---------------------------------------------------------------------------

void softmax_rows(const float* x, float* y, int64_t rows, int64_t cols) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  parallel_for(rows, cols * 8, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* row = x + r * cols;
      float* orow = y + r * cols;
      // Same structure as the fused-attention epilogue: lane-strided max,
      // a branch-free expf pass the compiler vectorizes (libm expf kept
      // this loop scalar and was the kernel's entire cost), lane-strided
      // sum — all via the shared lane_max/lane_sum helpers so the
      // association can never drift from the fused path.  Rows stay
      // bitwise identical across thread counts.  A NaN score falls out of
      // the max but poisons the row through exp(NaN); an all -inf row
      // yields exp(-inf - -inf) = NaN like libm.
      const float mx = lane_max(row, cols, kNegInf);
      for (int64_t c = 0; c < cols; ++c) orow[c] = fast_expf(row[c] - mx);
      const float denom = lane_sum(orow, cols);
      const float inv = 1.0f / denom;
      for (int64_t c = 0; c < cols; ++c) orow[c] *= inv;
    }
  });
}

void softmax_backward_rows(const float* g, const float* y, float* gx,
                           int64_t rows, int64_t cols) {
  parallel_for(rows, cols * 4, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* grow = g + r * cols;
      const float* orow = y + r * cols;
      // Lane-strided Σ g·y (the serial fma chain bottlenecked on add
      // latency and kept the whole kernel scalar), then an elementwise
      // pass the compiler vectorizes.  Association fixed at compile time
      // — rows stay bitwise identical across thread counts.
      const float dot = lane_dot(grow, orow, cols);
      float* __restrict gxr = gx + r * cols;
      for (int64_t c = 0; c < cols; ++c) gxr[c] = orow[c] * (grow[c] - dot);
    }
  });
}

void layer_norm_rows(const float* x, const float* gamma, const float* beta,
                     float* y, float* xhat, float* invstd, int64_t rows,
                     int64_t cols, float eps) {
  const double inv_n = 1.0 / static_cast<double>(cols);
  parallel_for(rows, cols * 4, [&](int64_t lo, int64_t hi) {
    // No-stash callers (inference / checkpoint initial passes) still run
    // the exact inner loop the training forward runs — a second,
    // store-free loop could be compiled with different FMA contraction
    // and break the bitwise checkpoint-recompute contract.  Their stash
    // stores land in one reused L1-resident workspace row instead of a
    // streamed numel-sized buffer.
    std::vector<float>& stash_row = workspace().ln_stash_row;
    if (xhat == nullptr) stash_row.resize(static_cast<size_t>(cols));
    for (int64_t r = lo; r < hi; ++r) {
      const float* row = x + r * cols;
      // Single pass: sum and sum-of-squares in double, then
      // var = E[x^2] - E[x]^2 (clamped against cancellation).
      double s = 0.0, sq = 0.0;
      for (int64_t c = 0; c < cols; ++c) {
        const double v = row[c];
        s += v;
        sq += v * v;
      }
      const double mu = s * inv_n;
      const double var = std::max(0.0, sq * inv_n - mu * mu);
      const float is = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      if (invstd != nullptr) invstd[r] = is;
      const float muf = static_cast<float>(mu);
      float* orow = y + r * cols;
      float* xh = xhat != nullptr ? xhat + r * cols : stash_row.data();
      for (int64_t c = 0; c < cols; ++c) {
        const float h = (row[c] - muf) * is;
        xh[c] = h;
        orow[c] = gamma[c] * h + beta[c];
      }
    }
  });
}

void layer_norm_backward_rows(const float* g, const float* gamma,
                              const float* xhat, const float* invstd,
                              float* gx, float* ggamma, float* gbeta,
                              int64_t rows, int64_t cols) {
  // gx is row-parallel; the gamma/beta column reductions must stay in a
  // fixed row order for determinism, so they run serially afterwards.
  // The two per-row means accumulate in double over fixed lane strides
  // (8 doubles = one AVX-512 vector): the serial double chains dominated
  // the row cost, and the association is compile-time fixed so rows stay
  // bitwise identical everywhere.
  constexpr int kDLanes = 8;
  parallel_for(rows, cols * 6, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* __restrict grow = g + r * cols;
      const float* __restrict xh = xhat + r * cols;
      const float is = invstd[r];
      double p0[kDLanes] = {}, p1[kDLanes] = {};
      int64_t c = 0;
      for (; c + kDLanes <= cols; c += kDLanes) {
        for (int u = 0; u < kDLanes; ++u) {
          const float dxh = grow[c + u] * gamma[c + u];
          p0[u] += dxh;
          p1[u] += static_cast<double>(dxh) * xh[c + u];
        }
      }
      double mean_dxhat = 0.0, mean_dxhat_xhat = 0.0;
      for (int u = 0; u < kDLanes; ++u) {
        mean_dxhat += p0[u];
        mean_dxhat_xhat += p1[u];
      }
      for (; c < cols; ++c) {
        const float dxh = grow[c] * gamma[c];
        mean_dxhat += dxh;
        mean_dxhat_xhat += static_cast<double>(dxh) * xh[c];
      }
      mean_dxhat /= static_cast<double>(cols);
      mean_dxhat_xhat /= static_cast<double>(cols);
      const float m0 = static_cast<float>(mean_dxhat);
      const float m1 = static_cast<float>(mean_dxhat_xhat);
      float* __restrict gxr = gx + r * cols;
      for (int64_t j = 0; j < cols; ++j) {
        const float dxh = grow[j] * gamma[j];
        gxr[j] = is * (dxh - m0 - xh[j] * m1);
      }
    }
  });
  for (int64_t r = 0; r < rows; ++r) {
    const float* grow = g + r * cols;
    const float* xh = xhat + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      ggamma[c] += grow[c] * xh[c];
      gbeta[c] += grow[c];
    }
  }
}

// ---------------------------------------------------------------------------
// Data movement
// ---------------------------------------------------------------------------

namespace {

/// Eight floats as one generic vector: GCC/Clang lower the shuffles below
/// to the target's permute instructions (AVX: one register per row) or to
/// narrower pieces elsewhere, with no target-specific code here.
typedef float Vec8 __attribute__((vector_size(32)));

// Vec8 crosses these helpers by reference: by value its ABI depends on
// whether AVX is enabled (GCC's -Wpsabi warning on portable builds).
inline void load8(Vec8& v, const float* p) { std::memcpy(&v, p, sizeof(v)); }

inline void store8(float* p, const Vec8& v) { std::memcpy(p, &v, sizeof(v)); }

/// d[j·ld + i] = s[i·ls + j] for an 8×8 block: eight row loads, three
/// rounds of two-input shuffles (interleave pairs, then quads, then
/// halves), eight row stores.
inline void transpose8x8(const float* s, int64_t ls, float* d, int64_t ld) {
  Vec8 r0, r1, r2, r3, r4, r5, r6, r7;
  load8(r0, s);
  load8(r1, s + ls);
  load8(r2, s + 2 * ls);
  load8(r3, s + 3 * ls);
  load8(r4, s + 4 * ls);
  load8(r5, s + 5 * ls);
  load8(r6, s + 6 * ls);
  load8(r7, s + 7 * ls);
  const Vec8 t0 = __builtin_shufflevector(r0, r1, 0, 8, 1, 9, 4, 12, 5, 13);
  const Vec8 t1 = __builtin_shufflevector(r0, r1, 2, 10, 3, 11, 6, 14, 7, 15);
  const Vec8 t2 = __builtin_shufflevector(r2, r3, 0, 8, 1, 9, 4, 12, 5, 13);
  const Vec8 t3 = __builtin_shufflevector(r2, r3, 2, 10, 3, 11, 6, 14, 7, 15);
  const Vec8 t4 = __builtin_shufflevector(r4, r5, 0, 8, 1, 9, 4, 12, 5, 13);
  const Vec8 t5 = __builtin_shufflevector(r4, r5, 2, 10, 3, 11, 6, 14, 7, 15);
  const Vec8 t6 = __builtin_shufflevector(r6, r7, 0, 8, 1, 9, 4, 12, 5, 13);
  const Vec8 t7 = __builtin_shufflevector(r6, r7, 2, 10, 3, 11, 6, 14, 7, 15);
  const Vec8 u0 = __builtin_shufflevector(t0, t2, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 u1 = __builtin_shufflevector(t0, t2, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 u2 = __builtin_shufflevector(t1, t3, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 u3 = __builtin_shufflevector(t1, t3, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 u4 = __builtin_shufflevector(t4, t6, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 u5 = __builtin_shufflevector(t4, t6, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 u6 = __builtin_shufflevector(t5, t7, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 u7 = __builtin_shufflevector(t5, t7, 2, 3, 10, 11, 6, 7, 14, 15);
  store8(d, __builtin_shufflevector(u0, u4, 0, 1, 2, 3, 8, 9, 10, 11));
  store8(d + ld, __builtin_shufflevector(u1, u5, 0, 1, 2, 3, 8, 9, 10, 11));
  store8(d + 2 * ld, __builtin_shufflevector(u2, u6, 0, 1, 2, 3, 8, 9, 10, 11));
  store8(d + 3 * ld, __builtin_shufflevector(u3, u7, 0, 1, 2, 3, 8, 9, 10, 11));
  store8(d + 4 * ld, __builtin_shufflevector(u0, u4, 4, 5, 6, 7, 12, 13, 14, 15));
  store8(d + 5 * ld, __builtin_shufflevector(u1, u5, 4, 5, 6, 7, 12, 13, 14, 15));
  store8(d + 6 * ld, __builtin_shufflevector(u2, u6, 4, 5, 6, 7, 12, 13, 14, 15));
  store8(d + 7 * ld, __builtin_shufflevector(u3, u7, 4, 5, 6, 7, 12, 13, 14, 15));
}

}  // namespace

void transpose_last2(const float* src, float* dst, int64_t nbatch,
                     int64_t rows, int64_t cols) {
  constexpr int64_t kTile = 32;
  const int64_t rtiles = ceil_div(rows, kTile);
  parallel_for(nbatch * rtiles, kTile * cols, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const int64_t b = t / rtiles;
      const int64_t i0 = (t % rtiles) * kTile;
      const int64_t i1 = std::min(rows, i0 + kTile);
      const float* s = src + b * rows * cols;
      float* d = dst + b * rows * cols;
      for (int64_t j0 = 0; j0 < cols; j0 += kTile) {
        const int64_t j1 = std::min(cols, j0 + kTile);
        // 8×8 register blocks, then the ragged column and row edges.
        int64_t i = i0;
        for (; i + 8 <= i1; i += 8) {
          int64_t j = j0;
          for (; j + 8 <= j1; j += 8)
            transpose8x8(s + i * cols + j, cols, d + j * rows + i, rows);
          for (; j < j1; ++j)
            for (int64_t ii = i; ii < i + 8; ++ii)
              d[j * rows + ii] = s[ii * cols + j];
        }
        for (; i < i1; ++i)
          for (int64_t j = j0; j < j1; ++j) d[j * rows + i] = s[i * cols + j];
      }
    }
  });
}

namespace {

/// Coalesces `shape` under one stride set (`sb` null) or two: drops
/// size-1 axes, then merges each axis into its predecessor wherever every
/// stride set steps contiguously across the pair (s[i−1] == s[i]·d[i]), so
/// the merged axis visits the same addresses in the same order.  The
/// results go into `dims` / `ca` / `cb` (workspace vectors: no allocation
/// once warm).  A row-major output stays row-major under both rules, so
/// linear output indices are unchanged.
void coalesce_axes(const Shape& shape, const Shape& sa, const Shape* sb,
                   std::vector<int64_t>& dims, std::vector<int64_t>& ca,
                   std::vector<int64_t>& cb) {
  dims.clear();
  ca.clear();
  cb.clear();
  for (size_t i = 0; i < shape.size(); ++i) {
    const int64_t d = shape[i];
    if (d == 1) continue;
    const int64_t b = sb ? (*sb)[i] : 0;
    if (!dims.empty() && ca.back() == sa[i] * d &&
        (!sb || cb.back() == b * d)) {
      dims.back() *= d;
      ca.back() = sa[i];
      if (sb) cb.back() = b;
      continue;
    }
    dims.push_back(d);
    ca.push_back(sa[i]);
    if (sb) cb.push_back(b);
  }
}

/// Offset of outer index `o` over axes [0, k) of `dims` under `strides`.
inline int64_t outer_offset(int64_t o, const int64_t* dims,
                            const int64_t* strides, size_t k) {
  int64_t off = 0;
  for (size_t i = k; i-- > 0;) {
    off += (o % dims[i]) * strides[i];
    o /= dims[i];
  }
  return off;
}

/// An innermost contiguous run at least this long is copied as a row
/// (fixed-length copies for 16, memcpy beyond), as are runs of exactly 4
/// or 8 floats; other short or strided ones are gathered per element.
constexpr int64_t kRunMin = 16;
/// Entries of permute_gather's offset table: 16 KB, L1-resident.
constexpr int64_t kTableMax = 2048;
/// Coalesced axes a move can have (a tensor's rank bounds it).
constexpr size_t kMaxAxes = 16;

/// A fixed-length run copy: the 4-, 8- and 16-float channel and head
/// runs of the model's moves become a vector load and store or two, where
/// a memcpy call would cost more than the bytes.
template <int64_t L>
inline void copy_run(float* __restrict to, const float* __restrict from) {
  for (int64_t i = 0; i < L; ++i) to[i] = from[i];
}

/// The one strided-move engine behind permute_gather (kScatter false:
/// dense[k] = strided[offset(k)]) and permute_scatter (kScatter true:
/// strided[offset(k)] = dense[k]), offsets following `strides` over
/// `shape`.  Size-1 axes are dropped and axes contiguous on the strided
/// side merged; then an identity is a memcpy, a batched 2-D transpose goes
/// to `transpose_last2`, and anything else moves a trailing block of axes
/// through an offset table built once per call (workspace scratch),
/// parallel over the remaining outer index.
template <bool kScatter>
void permute_move(const float* src, float* dst, const Shape& shape,
                  const Shape& strides) {
  const int64_t total = tensor::numel(shape);
  if (total == 0) return;
  obs::count_move(obs::Move::kPermute,
                  total * static_cast<int64_t>(sizeof(float)));
  Workspace& ws = workspace();
  std::vector<int64_t>& d = ws.move_dims;
  std::vector<int64_t>& s = ws.move_sa;
  coalesce_axes(shape, strides, nullptr, d, s, ws.move_sb);
  size_t n = d.size();
  COASTAL_CHECK(n < kMaxAxes);

  // Identity: one contiguous run (or a single element).
  if (n == 0 || (n == 1 && s[0] == 1)) {
    std::memcpy(dst, src, static_cast<size_t>(total) * sizeof(float));
    return;
  }
  // Batched 2-D transpose between a dense [nb, X, Y] and the strided
  // side's [nb, Y, X]: the tiled kernel, run in the direction of the move.
  if (n == 2 && s[0] == 1 && s[1] == d[0]) {
    if (kScatter) {
      transpose_last2(src, dst, 1, d[0], d[1]);
    } else {
      transpose_last2(src, dst, 1, d[1], d[0]);
    }
    return;
  }
  if (n == 3 && s[1] == 1 && s[2] == d[1] && s[0] == d[1] * d[2]) {
    if (kScatter) {
      transpose_last2(src, dst, d[0], d[1], d[2]);
    } else {
      transpose_last2(src, dst, d[0], d[2], d[1]);
    }
    return;
  }

  // General move.  A trailing block of axes is laid out once as a table
  // of strided offsets and each outer index moves a whole block through
  // it, so short innermost rows (the model's are 2–8 floats) cost one
  // table load per element and no per-row index arithmetic.  A long
  // contiguous innermost run, or one too long for the table, is copied as
  // a row instead (`rows`): the table then holds row offsets.
  const int64_t row_stride = s[n - 1];
  const bool rows =
      (row_stride == 1 && (d[n - 1] >= kRunMin || d[n - 1] == 4 ||
                           d[n - 1] == 8)) ||
      d[n - 1] > kTableMax;
  size_t end = rows ? n - 1 : n;
  size_t k = end;
  int64_t entries = 1;
  for (; k > 0 && entries * d[k - 1] <= kTableMax; --k) entries *= d[k - 1];
  if (k > 0) {
    // The next axis does not fit whole: split it (d = q·f, strides s·f
    // and s) and table its largest fitting factor f, so blocks stay long
    // where a whole-axis table would leave them a few floats.
    int64_t f = kTableMax / entries;
    while (f > 1 && d[k - 1] % f != 0) --f;
    if (f > 1) {
      d.insert(d.begin() + static_cast<std::ptrdiff_t>(k), f);
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(k), s[k - 1]);
      d[k - 1] /= f;
      s[k - 1] *= f;
      ++n;
      ++end;
    }
  }
  std::vector<int64_t>& table = ws.move_table;
  table.assign(1, 0);
  for (size_t i = end; i-- > k;) {
    // Prepend axis i: entry c·m + j = c·s[i] + entry j.
    const size_t m = table.size();
    table.resize(m * static_cast<size_t>(d[i]));
    for (int64_t c = 1; c < d[i]; ++c)
      for (size_t j = 0; j < m; ++j)
        table[static_cast<size_t>(c) * m + j] = table[j] + c * s[i];
  }

  const int64_t row_len = rows ? d[n - 1] : 1;
  entries = static_cast<int64_t>(table.size());
  const int64_t block = entries * row_len;
  const int64_t* tab = table.data();
  const int64_t* dd = d.data();
  const int64_t* ss = s.data();
  parallel_for(total / block, block, [&](int64_t lo, int64_t hi) {
    // Outer coordinates advance as an odometer: blocks can be a few
    // floats, where a division per block would cost more than the copy.
    std::array<int64_t, kMaxAxes> coord{};
    int64_t strided = 0;
    for (size_t i = k, o = static_cast<size_t>(lo); i-- > 0;) {
      coord[i] = static_cast<int64_t>(o) % dd[i];
      o /= static_cast<size_t>(dd[i]);
      strided += coord[i] * ss[i];
    }
    for (int64_t o = lo; o < hi; ++o) {
      const int64_t dense = o * block;
      if (!rows) {
        if (kScatter) {
          for (int64_t t = 0; t < entries; ++t)
            dst[strided + tab[t]] = src[dense + t];
        } else {
          for (int64_t t = 0; t < entries; ++t)
            dst[dense + t] = src[strided + tab[t]];
        }
      } else if (row_stride == 1) {
        for (int64_t t = 0; t < entries; ++t) {
          const int64_t a = strided + tab[t], b = dense + t * row_len;
          float* to = dst + (kScatter ? a : b);
          const float* from = src + (kScatter ? b : a);
          if (row_len == 4) {
            copy_run<4>(to, from);
          } else if (row_len == 8) {
            copy_run<8>(to, from);
          } else if (row_len == 16) {
            copy_run<16>(to, from);
          } else {
            std::memcpy(to, from, static_cast<size_t>(row_len) * sizeof(float));
          }
        }
      } else {
        for (int64_t t = 0; t < entries; ++t) {
          const int64_t a = strided + tab[t], b = dense + t * row_len;
          for (int64_t c = 0; c < row_len; ++c) {
            if (kScatter) {
              dst[a + c * row_stride] = src[b + c];
            } else {
              dst[b + c] = src[a + c * row_stride];
            }
          }
        }
      }
      for (size_t i = k; i-- > 0;) {
        strided += ss[i];
        if (++coord[i] < dd[i]) break;
        strided -= dd[i] * ss[i];
        coord[i] = 0;
      }
    }
  });
}

}  // namespace

void permute_gather(const float* src, float* dst, const Shape& out_shape,
                    const Shape& gather_strides) {
  permute_move<false>(src, dst, out_shape, gather_strides);
}

void permute_scatter(const float* src, float* dst, const Shape& shape,
                     const Shape& scatter_strides) {
  permute_move<true>(src, dst, shape, scatter_strides);
}

void gather_rows(const float* src, float* dst, int64_t batch, int64_t rows,
                 int64_t cols, const int64_t* table) {
  const int64_t total = batch * rows;
  if (total == 0 || cols == 0) return;
  obs::count_move(obs::Move::kWindow,
                  total * cols * static_cast<int64_t>(sizeof(float)));
  parallel_for(total, cols, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const int64_t b = r / rows;
      std::memcpy(dst + r * cols, src + (b * rows + table[r - b * rows]) * cols,
                  static_cast<size_t>(cols) * sizeof(float));
    }
  });
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

namespace {

template <typename Fn>
void binary_same_apply(const float* a, const float* b, float* out, int64_t n,
                       Fn fn) {
  parallel_for(n, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = fn(a[i], b[i]);
  });
}

/// Elements one broadcast task covers: whole rows of the inner 2-D block
/// up to this size, or column chunks of it when a row is longer.
constexpr int64_t kTileElems = 1024;

/// Broadcast over the coalesced axes: the last two form an inner [R, C]
/// block, the rest are outer.  Tasks are (outer index, row tile, column
/// chunk) triples, each locating its operands by index arithmetic once.
/// Every output element is `fn` of the same two inputs as under the
/// uncoalesced walk, so the results are bitwise those of the reference
/// loop.
template <typename Fn>
void binary_broadcast_apply(const float* a, const float* b, float* out,
                            const Shape& out_shape, const Shape& sa,
                            const Shape& sb, Fn fn) {
  const int64_t total = tensor::numel(out_shape);
  if (total == 0) return;
  Workspace& ws = workspace();
  std::vector<int64_t>& d = ws.move_dims;
  std::vector<int64_t>& da = ws.move_sa;
  std::vector<int64_t>& db = ws.move_sb;
  coalesce_axes(out_shape, sa, &sb, d, da, db);
  const size_t n = d.size();
  const int64_t C = n >= 1 ? d[n - 1] : 1;
  const int64_t a_c = n >= 1 ? da[n - 1] : 0, b_c = n >= 1 ? db[n - 1] : 0;
  const int64_t R = n >= 2 ? d[n - 2] : 1;
  const int64_t a_r = n >= 2 ? da[n - 2] : 0, b_r = n >= 2 ? db[n - 2] : 0;
  const size_t k = n >= 2 ? n - 2 : 0;
  const int64_t tile = std::clamp<int64_t>(kTileElems / C, 1, R);
  const int64_t ccols = std::min(C, kTileElems);
  const int64_t rtiles = ceil_div(R, tile), ctiles = ceil_div(C, ccols);

  // Contiguous rows ∘ one row vector shared by every row (BatchNorm's
  // [rows, C] ∘ [C]): the vector is replicated `tile` times into the
  // workspace so a whole tile is one flat loop the compiler vectorizes,
  // where a C-long loop per row would pay loop overhead every 2–8 floats.
  bool row_vec = tile > 1 && a_c == 1 && a_r == C && b_c == 1 && b_r == 0;
  for (size_t i = 0; i < k && row_vec; ++i) row_vec = db[i] == 0;
  if (row_vec) {
    ws.move_row.resize(static_cast<size_t>(tile * C));
    for (int64_t r = 0; r < tile; ++r)
      std::memcpy(ws.move_row.data() + r * C, b,
                  static_cast<size_t>(C) * sizeof(float));
  }
  const float* rep = ws.move_row.data();

  const int64_t* dd = d.data();
  const int64_t* pda = da.data();
  const int64_t* pdb = db.data();
  const int64_t tasks = total / (R * C) * rtiles * ctiles;
  parallel_for(tasks, tile * ccols, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const int64_t c0 = (t % ctiles) * ccols;
      const int64_t c1 = std::min(C, c0 + ccols);
      const int64_t r0 = (t / ctiles % rtiles) * tile;
      const int64_t r1 = std::min(R, r0 + tile);
      const int64_t o = t / (ctiles * rtiles);
      const float* pa = a + outer_offset(o, dd, pda, k) + r0 * a_r + c0 * a_c;
      const float* pb = b + outer_offset(o, dd, pdb, k) + r0 * b_r + c0 * b_c;
      float* po = out + (o * R + r0) * C + c0;
      if (row_vec) {
        const int64_t m = (r1 - r0) * C;
        for (int64_t j = 0; j < m; ++j) po[j] = fn(pa[j], rep[j]);
        continue;
      }
      const int64_t w = c1 - c0;
      for (int64_t r = r0; r < r1; ++r, pa += a_r, pb += b_r, po += C) {
        if (a_c == 1 && b_c == 1) {
          for (int64_t c = 0; c < w; ++c) po[c] = fn(pa[c], pb[c]);
        } else if (a_c == 1 && b_c == 0) {
          const float bv = pb[0];
          for (int64_t c = 0; c < w; ++c) po[c] = fn(pa[c], bv);
        } else if (a_c == 0 && b_c == 1) {
          const float av = pa[0];
          for (int64_t c = 0; c < w; ++c) po[c] = fn(av, pb[c]);
        } else {
          for (int64_t c = 0; c < w; ++c) po[c] = fn(pa[c * a_c], pb[c * b_c]);
        }
      }
    }
  });
}

}  // namespace

void binary_same(BinOp op, const float* a, const float* b, float* out,
                 int64_t n) {
  switch (op) {
    case BinOp::kAdd:
      binary_same_apply(a, b, out, n, [](float x, float y) { return x + y; });
      break;
    case BinOp::kSub:
      binary_same_apply(a, b, out, n, [](float x, float y) { return x - y; });
      break;
    case BinOp::kMul:
      binary_same_apply(a, b, out, n, [](float x, float y) { return x * y; });
      break;
    case BinOp::kDiv:
      binary_same_apply(a, b, out, n, [](float x, float y) { return x / y; });
      break;
  }
}

void binary_broadcast(BinOp op, const float* a, const float* b, float* out,
                      const Shape& out_shape, const Shape& sa,
                      const Shape& sb) {
  switch (op) {
    case BinOp::kAdd:
      binary_broadcast_apply(a, b, out, out_shape, sa, sb,
                             [](float x, float y) { return x + y; });
      break;
    case BinOp::kSub:
      binary_broadcast_apply(a, b, out, out_shape, sa, sb,
                             [](float x, float y) { return x - y; });
      break;
    case BinOp::kMul:
      binary_broadcast_apply(a, b, out, out_shape, sa, sb,
                             [](float x, float y) { return x * y; });
      break;
    case BinOp::kDiv:
      binary_broadcast_apply(a, b, out, out_shape, sa, sb,
                             [](float x, float y) { return x / y; });
      break;
  }
}

void map(const float* x, float* out, int64_t n, int64_t cost,
         const std::function<void(const float*, float*, int64_t)>& fn) {
  parallel_for(n, cost, [&](int64_t lo, int64_t hi) {
    fn(x + lo, out + lo, hi - lo);
  });
}

namespace {

constexpr float kInvSqrt2 = 0.7071067811865475f;
constexpr float kInvSqrt2Pi = 0.3989422804014327f;
/// Per-element cost hint of the GELU loops (as for the unary maps).
constexpr int64_t kGeluCost = 8;

}  // namespace

void gelu(const float* x, float* y, int64_t n) {
  parallel_for(n, kGeluCost, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      y[i] = 0.5f * x[i] * (1.0f + fast_erff(x[i] * kInvSqrt2));
  });
}

namespace {

constexpr int64_t kGeluBlock = 16;

/// gelu_backward over exactly kGeluBlock elements.  Every element goes
/// through this one compiled loop — a chunk's tail through a padded
/// block — because an auto-vectorized loop and its scalar epilogue round
/// this expression differently, which made an element's gradient depend
/// on where chunk boundaries fell, i.e. on the thread count.
[[gnu::noinline]] void gelu_backward_block(const float* __restrict g,
                                           const float* __restrict x,
                                           float* __restrict gx) {
  for (int64_t i = 0; i < kGeluBlock; ++i) {
    const float v = x[i];
    const float cdf = 0.5f * (1.0f + fast_erff(v * kInvSqrt2));
    const float pdf = kInvSqrt2Pi * fast_expf(-0.5f * v * v);
    gx[i] = g[i] * (cdf + v * pdf);
  }
}

}  // namespace

void gelu_backward(const float* g, const float* x, float* gx, int64_t n) {
  parallel_for(n, kGeluCost, [&](int64_t lo, int64_t hi) {
    int64_t i = lo;
    for (; i + kGeluBlock <= hi; i += kGeluBlock)
      gelu_backward_block(g + i, x + i, gx + i);
    if (i < hi) {
      float gb[kGeluBlock] = {}, xb[kGeluBlock] = {}, out[kGeluBlock];
      std::memcpy(gb, g + i, static_cast<size_t>(hi - i) * sizeof(float));
      std::memcpy(xb, x + i, static_cast<size_t>(hi - i) * sizeof(float));
      gelu_backward_block(gb, xb, out);
      std::memcpy(gx + i, out, static_cast<size_t>(hi - i) * sizeof(float));
    }
  });
}

}  // namespace coastal::tensor::kernels
