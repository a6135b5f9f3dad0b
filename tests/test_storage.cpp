/// Tests for the memory layer (storage.hpp): the size-bucketed storage
/// pool, per-thread workspaces, and episode arenas.
///
/// The load-bearing invariants:
///  * recycled (dirty) pool blocks never change results — every op fully
///    initializes what it reads, so pool reuse is bitwise invisible;
///  * steady-state inference inside an ArenaScope performs zero heap
///    allocations;
///  * a tensor outliving its arena is a loud, diagnosable error;
///  * COASTAL_DISABLE_POOL degrades everything to one-real-allocation-
///    per-tensor so ASan/valgrind stay byte-precise.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "core/surrogate.hpp"
#include "nn/attention.hpp"
#include "tensor/kernels.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/env.hpp"

using namespace coastal;
using tensor::Tensor;
namespace ct = coastal::tensor;
namespace ker = coastal::tensor::kernels;

namespace {

/// RAII restore of the pool-enabled flag (tests flip it).
struct PoolEnabledOverride {
  bool saved = ct::pool_enabled();
  ~PoolEnabledOverride() { ct::set_pool_enabled(saved); }
};

}  // namespace

TEST(StoragePool, FreeListReuseIsCountedAndSkipsTheHeap) {
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  ct::pool_trim();
  const auto s0 = ct::alloc_stats();
  {
    Tensor a = Tensor::zeros({1024});
    const auto live = ct::alloc_stats();
    EXPECT_GE(live.current_bytes, s0.current_bytes + 1024 * sizeof(float));
  }
  const auto s1 = ct::alloc_stats();
  EXPECT_GE(s1.pool_misses, s0.pool_misses + 1);  // trimmed pool: cold
  EXPECT_EQ(s1.current_bytes, s0.current_bytes);  // liveness accounting
  {
    Tensor b = Tensor::zeros({1000});  // same power-of-two bucket as 1024
  }
  const auto s2 = ct::alloc_stats();
  EXPECT_GE(s2.pool_hits, s1.pool_hits + 1);
  EXPECT_EQ(s2.total_allocs, s1.total_allocs)
      << "a pool hit must not touch the heap";
}

TEST(StoragePool, ZerosAreZeroAfterDirtyReuse) {
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  { Tensor t = Tensor::full({512}, 7.5f); }
  // Same bucket: zeros() must scrub the recycled block.
  Tensor z = Tensor::zeros({512});
  for (int64_t i = 0; i < 512; ++i) ASSERT_EQ(z.raw()[i], 0.0f) << i;
}

TEST(StoragePool, BitwiseIdenticalAcrossReuseAndThreadCounts) {
  // Pool reuse hands ops recycled, dirty buffers; results must be bitwise
  // identical to a cold-pool run, under any thread count — the PR 1
  // determinism invariant extended to the memory layer.
  util::Rng rng(77);
  nn::MultiHeadSelfAttention attn(24, 4, rng);
  Tensor x = Tensor::randn({4, 40, 24}, rng);
  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  ker::config().num_threads = 1;
  ct::pool_trim();
  Tensor cold = attn.forward(x);
  Tensor warm = attn.forward(x);  // every buffer now recycled
  ker::config().num_threads = 8;
  ker::config().parallel_grain = 1;  // force chunked dispatch
  Tensor par = attn.forward(x);
  const size_t bytes = static_cast<size_t>(cold.numel()) * sizeof(float);
  ASSERT_EQ(cold.shape(), warm.shape());
  ASSERT_EQ(cold.shape(), par.shape());
  EXPECT_EQ(std::memcmp(cold.raw(), warm.raw(), bytes), 0)
      << "pool reuse changed results";
  EXPECT_EQ(std::memcmp(cold.raw(), par.raw(), bytes), 0)
      << "thread count changed results on recycled buffers";
}

TEST(StorageArena, NestedScopesBumpAndBulkRelease) {
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  EXPECT_FALSE(ct::ArenaScope::active());
  const auto s0 = ct::alloc_stats();
  {
    ct::ArenaScope outer;
    EXPECT_TRUE(ct::ArenaScope::active());
    Tensor a = Tensor::zeros({256});
    {
      ct::ArenaScope inner;
      Tensor b = Tensor::ones({256});
      Tensor c = a.add(b);
      EXPECT_EQ(c.raw()[0], 1.0f);
    }  // inner tensors die first, then the inner scope — no error
    EXPECT_TRUE(ct::ArenaScope::active());
  }
  EXPECT_FALSE(ct::ArenaScope::active());
  const auto s1 = ct::alloc_stats();
  EXPECT_GE(s1.arena_allocs, s0.arena_allocs + 3);
  EXPECT_EQ(s1.current_bytes, s0.current_bytes) << "arena leaked liveness";
}

TEST(StorageArena, EscapingTensorIsALoudError) {
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  Tensor escaped;
  EXPECT_THROW(
      {
        ct::ArenaScope arena;
        escaped = Tensor::full({64}, 3.0f);
      },
      util::CheckError);
  // Diagnosable, not a use-after-free: the escapee keeps the arena state
  // (and its chunks) alive, so its data is still intact.
  ASSERT_TRUE(escaped.defined());
  EXPECT_EQ(escaped.raw()[0], 3.0f);
  EXPECT_EQ(escaped.raw()[63], 3.0f);
  escaped = Tensor();  // last reference: chunks return to the pool
}

TEST(StorageArena, AdoptedVectorsMaySafelyOutliveTheScope) {
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  // from_vector wraps the caller's buffer and is never arena-backed, so
  // a tensor built that way inside an episode arena may outlive it.
  Tensor kept;
  {
    ct::ArenaScope arena;
    kept = Tensor::from_vector({4}, {1, 2, 3, 4});
  }  // no throw
  EXPECT_EQ(kept.raw()[3], 4.0f);
}

TEST(StorageArena, AttentionInferenceStepZeroHeapAllocs) {
  // A steady-state attention forward inside an ArenaScope performs ZERO
  // heap allocations — every tensor buffer, the [B, h, N, N] scores
  // included, is bump-allocated from recycled arena chunks.
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  util::Rng rng(5);
  nn::MultiHeadSelfAttention attn(32, 4, rng);
  Tensor x = Tensor::randn({8, 64, 32}, rng);
  tensor::NoGradGuard ng;
  for (int i = 0; i < 2; ++i) {  // warm: pool chunks + workspace scratch
    ct::ArenaScope arena;
    (void)attn.forward(x);
  }
  const auto before = ct::alloc_stats();
  {
    ct::ArenaScope arena;
    (void)attn.forward(x);
  }
  const auto after = ct::alloc_stats();
  EXPECT_EQ(after.total_allocs, before.total_allocs)
      << "steady-state attention inference hit the heap";
  EXPECT_GT(after.arena_allocs, before.arena_allocs);
}

TEST(StorageArena, SurrogateEpisodeStepAllocBudget) {
  // Same pin at full-model scale: one forward of the miniature surrogate
  // (the BM_TrainStep model) in an episode arena — after warmup, the
  // per-episode heap-allocation budget is exactly zero.  Warmup sizes
  // the pool chunks and the workspace scratch.
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  util::Rng rng(10);
  core::SurrogateConfig cfg;
  cfg.H = 20;
  cfg.W = 20;
  cfg.D = 6;
  cfg.T = 3;
  cfg.patch_h = 5;
  cfg.patch_w = 5;
  cfg.patch_d = 2;
  cfg.embed_dim = 8;
  cfg.stages = 3;
  cfg.heads = {2, 4, 8};
  core::SurrogateModel model(cfg, rng);
  util::Rng drng(11);
  Tensor volume = Tensor::randn({1, 3, 20, 20, 6, 4}, drng);
  Tensor surface = Tensor::randn({1, 1, 20, 20, 4}, drng);
  tensor::NoGradGuard ng;
  for (int i = 0; i < 2; ++i) {
    ct::ArenaScope arena;
    (void)model.forward(volume, surface);
  }
  const auto before = ct::alloc_stats();
  {
    ct::ArenaScope arena;
    (void)model.forward(volume, surface);
  }
  const auto after = ct::alloc_stats();
  EXPECT_EQ(after.total_allocs, before.total_allocs)
      << "steady-state surrogate episode hit the heap";
}

TEST(StorageDisabledPool, EscapeHatchMakesEveryAllocationReal) {
  PoolEnabledOverride restore;
  ct::set_pool_enabled(false);
  const auto s0 = ct::alloc_stats();
  {
    ct::ArenaScope arena;  // inert in debugging mode
    EXPECT_FALSE(ct::ArenaScope::active());
    Tensor t = Tensor::zeros({128});
    const auto s1 = ct::alloc_stats();
    EXPECT_EQ(s1.total_allocs, s0.total_allocs + 1)
        << "disabled pool must heap-allocate every storage";
    EXPECT_EQ(s1.pool_hits, s0.pool_hits);
    EXPECT_EQ(s1.arena_allocs, s0.arena_allocs);
  }  // no escape error either: nothing is arena-backed
  const auto s2 = ct::alloc_stats();
  EXPECT_EQ(s2.current_bytes, s0.current_bytes);
}

TEST(StorageDisabledPool, EnvFlagIsZeroOrOne) {
  // The pool read COASTAL_DISABLE_POOL through util::env_flag at first
  // use: test_storage runs with it unset, test_storage_nopool with 1.
  EXPECT_EQ(ct::pool_enabled(),
            !util::env_flag("COASTAL_DISABLE_POOL").value_or(false));
  // Only parsed from here on: `false` or `off` must not disable the pool.
  coastal::testing::ScopedEnv flag("COASTAL_DISABLE_POOL", nullptr);
  EXPECT_FALSE(util::env_flag("COASTAL_DISABLE_POOL").has_value());
  flag.set("");  // empty = unset
  EXPECT_FALSE(util::env_flag("COASTAL_DISABLE_POOL").has_value());
  flag.set("0");
  EXPECT_EQ(util::env_flag("COASTAL_DISABLE_POOL"), false);
  flag.set("1");
  EXPECT_EQ(util::env_flag("COASTAL_DISABLE_POOL"), true);
  for (const char* bad : {"false", "off", "true", "2", "01", " 1"}) {
    SCOPED_TRACE(bad);
    flag.set(bad);
    coastal::testing::expect_check_error_naming(
        [] { util::env_flag("COASTAL_DISABLE_POOL"); },
        "COASTAL_DISABLE_POOL");
  }
}
