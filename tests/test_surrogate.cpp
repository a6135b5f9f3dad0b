/// Tests for the 4-D Swin surrogate model: configuration validation,
/// forward shapes, gradient flow, checkpoint equivalence, learning on a
/// tiny problem, and parameter (de)serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "core/surrogate.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "obs/profile.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"

namespace core = coastal::core;
namespace ct = coastal::tensor;
using coastal::core::SurrogateConfig;
using coastal::core::SurrogateModel;
using coastal::tensor::Tensor;
using coastal::testing::expect_tensor_near;
using coastal::util::Rng;

namespace {

SurrogateConfig mini_config() {
  SurrogateConfig cfg;
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
  return cfg;
}

struct Inputs {
  Tensor volume, surface;
};

Inputs mini_inputs(uint64_t seed) {
  Rng rng(seed);
  return {Tensor::randn({1, 3, 20, 20, 6, 4}, rng),
          Tensor::randn({1, 1, 20, 20, 4}, rng)};
}

}  // namespace

TEST(SurrogateConfig, ValidatesGeometry) {
  SurrogateConfig cfg = mini_config();
  cfg.validate();  // fine
  cfg.H = 21;      // not divisible by patch 5
  EXPECT_THROW(cfg.validate(), coastal::util::CheckError);
  cfg = mini_config();
  cfg.heads = {2, 4};  // wrong stage count
  EXPECT_THROW(cfg.validate(), coastal::util::CheckError);
}

TEST(Surrogate, ForwardShapes) {
  Rng rng(1);
  SurrogateModel model(mini_config(), rng);
  auto in = mini_inputs(2);
  auto out = model.forward(in.volume, in.surface);
  EXPECT_EQ(out.volume.shape(), (ct::Shape{1, 3, 20, 20, 6, 3}));
  EXPECT_EQ(out.surface.shape(), (ct::Shape{1, 1, 20, 20, 3}));
}

TEST(Surrogate, RejectsWrongTimeLength) {
  Rng rng(3);
  SurrogateModel model(mini_config(), rng);
  Rng drng(4);
  Tensor vol = Tensor::randn({1, 3, 20, 20, 6, 5}, drng);
  Tensor surf = Tensor::randn({1, 1, 20, 20, 5}, drng);
  EXPECT_THROW(model.forward(vol, surf), coastal::util::CheckError);
}

TEST(Surrogate, ParameterCountIsReasonable) {
  Rng rng(5);
  SurrogateModel model(mini_config(), rng);
  const int64_t n = model.num_parameters();
  EXPECT_GT(n, 10'000);
  EXPECT_LT(n, 5'000'000);
}

TEST(Surrogate, GradientReachesEveryParameter) {
  Rng rng(6);
  SurrogateModel model(mini_config(), rng);
  auto in = mini_inputs(7);
  auto out = model.forward(in.volume, in.surface);
  out.volume.sum().add(out.surface.sum()).backward();
  size_t missing = 0;
  for (auto& [name, p] : model.named_parameters()) {
    if (!p.grad().defined()) {
      ADD_FAILURE() << "no gradient for " << name;
      ++missing;
    }
  }
  EXPECT_EQ(missing, 0u);
}

TEST(Surrogate, CheckpointedForwardMatches) {
  Rng rng(8);
  SurrogateModel model(mini_config(), rng);
  model.set_training(false);  // freeze BatchNorm stats for comparability
  auto in = mini_inputs(9);
  ct::NoGradGuard ng;
  auto plain = model.forward(in.volume, in.surface, /*use_checkpoint=*/false);
  auto ckpt = model.forward(in.volume, in.surface, /*use_checkpoint=*/true);
  expect_tensor_near(ckpt.volume, plain.volume, 1e-5);
  expect_tensor_near(ckpt.surface, plain.surface, 1e-5);
}

TEST(Surrogate, CheckpointedGradsMatch) {
  Rng rng(10);
  SurrogateConfig cfg = mini_config();
  SurrogateModel model(cfg, rng);
  model.set_training(false);  // BatchNorm running stats must not drift
  auto in = mini_inputs(11);

  auto loss_of = [&](bool ckpt) {
    model.zero_grad();
    auto out = model.forward(in.volume, in.surface, ckpt);
    out.volume.mul(out.volume).sum().add(out.surface.mul(out.surface).sum())
        .backward();
    std::vector<float> grads;
    for (auto& p : model.parameters()) {
      auto g = p.grad();
      EXPECT_TRUE(g.defined());
      if (g.defined())
        grads.insert(grads.end(), g.data().begin(), g.data().end());
    }
    return grads;
  };
  std::vector<float> g_plain = loss_of(false);
  std::vector<float> g_ckpt = loss_of(true);
  ASSERT_EQ(g_plain.size(), g_ckpt.size());
  double worst = 0;
  for (size_t i = 0; i < g_plain.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(g_plain[i]) - g_ckpt[i]));
  EXPECT_LT(worst, 1e-4);
}

TEST(Surrogate, CheckpointReducesPeakActivationMemory) {
  Rng rng(12);
  SurrogateModel model(mini_config(), rng);
  auto in = mini_inputs(13);

  auto peak_of = [&](bool ckpt) {
    model.zero_grad();
    ct::reset_peak_bytes();
    auto out = model.forward(in.volume, in.surface, ckpt);
    const uint64_t peak = ct::alloc_stats().peak_bytes;
    out.volume.sum().backward();  // finish the graph so buffers release
    return peak;
  };
  const uint64_t peak_plain = peak_of(false);
  const uint64_t peak_ckpt = peak_of(true);
  EXPECT_LT(peak_ckpt, peak_plain);
}

TEST(Surrogate, LearnsIdentityLikeMapping) {
  // A few Adam steps on one sample must reduce the loss substantially —
  // the sanity bar for the whole model + autograd stack.
  Rng rng(14);
  SurrogateConfig cfg = mini_config();
  SurrogateModel model(cfg, rng);
  auto in = mini_inputs(15);
  Rng trng(16);
  Tensor target_vol = Tensor::randn({1, 3, 20, 20, 6, 3}, trng, 0.1f);
  Tensor target_surf = Tensor::randn({1, 1, 20, 20, 3}, trng, 0.1f);

  coastal::nn::Adam opt(model.parameters(), 3e-3f);
  double first = -1, last = -1;
  for (int step = 0; step < 12; ++step) {
    opt.zero_grad();
    auto out = model.forward(in.volume, in.surface);
    Tensor loss = ct::mse_loss(out.volume, target_vol)
                      .add(ct::mse_loss(out.surface, target_surf));
    if (first < 0) first = loss.item();
    last = loss.item();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(last, first * 0.6) << "loss failed to drop: " << first << " -> "
                               << last;
}

TEST(Surrogate, SaveLoadReproducesOutputs) {
  Rng rng1(17), rng2(18);
  SurrogateModel a(mini_config(), rng1);
  SurrogateModel b(mini_config(), rng2);  // different init
  a.set_training(false);
  b.set_training(false);
  auto in = mini_inputs(19);
  ct::NoGradGuard ng;

  const std::string path =
      (std::filesystem::temp_directory_path() / "surrogate.bin").string();
  coastal::nn::save_parameters(a, path);
  coastal::nn::load_parameters(b, path);
  auto oa = a.forward(in.volume, in.surface);
  auto ob = b.forward(in.volume, in.surface);
  expect_tensor_near(ob.volume, oa.volume, 0.0);
  expect_tensor_near(ob.surface, oa.surface, 0.0);
  std::remove(path.c_str());
}

TEST(Surrogate, DeterministicForSeed) {
  auto in = mini_inputs(20);
  ct::NoGradGuard ng;
  Rng r1(21), r2(21);
  SurrogateModel a(mini_config(), r1), b(mini_config(), r2);
  a.set_training(false);
  b.set_training(false);
  auto oa = a.forward(in.volume, in.surface);
  auto ob = b.forward(in.volume, in.surface);
  expect_tensor_near(oa.volume, ob.volume, 0.0);
}

namespace {

/// Digest of every float of `tensors`, in order.
uint64_t digest_of(std::initializer_list<Tensor> tensors) {
  coastal::util::ContentHash h;
  for (const Tensor& t : tensors) h.update_f32(t.data());
  return h.digest();
}

/// Parameters then buffers, as the end-to-end benchmark's weights digest.
uint64_t weights_digest_of(const SurrogateModel& model) {
  coastal::util::ContentHash h;
  for (const auto& p : model.parameters()) h.update_f32(p.data());
  for (const auto& [name, b] : model.named_buffers()) h.update_f32(b.data());
  return h.digest();
}

std::string hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A shape where the shifted windows roll three axes at the first stage
/// (H by 2, W by 1 on an odd window count, D by 1) and H at the second.
SurrogateConfig odd_config() {
  SurrogateConfig cfg;
  cfg.H = 40;
  cfg.W = 30;
  cfg.D = 6;
  cfg.T = 4;
  cfg.patch_h = 5;
  cfg.patch_w = 5;
  cfg.patch_d = 2;
  cfg.embed_dim = 8;
  cfg.stages = 2;
  cfg.heads = {2, 4};
  return cfg;
}

/// Digests recorded from the channel-first implementation this layout
/// replaced (per-module permutes, fold_time/unfold_time, roll + permute
/// windows): pure data movement changed, so every bit must match.  A
/// native build contracts multiply-adds (FMA) and a portable one does
/// not, so each records its own set; a native AddressSanitizer build
/// contracts differently in the training kernels and has its own
/// training digest (the same in both implementations' builds).
struct RecordedDigests {
  const char* b1;
  const char* b3;
  const char* grouped3;
  const char* odd;
  const char* train;
};
#if defined(COASTAL_MARCH_NATIVE) && defined(__SANITIZE_ADDRESS__)
constexpr RecordedDigests kChannelFirst = {"0df05efcfa522511", "b4eff09f36412b66",
                                   "6aa2c62d5e8736b7", "486b44280cdc5e4d",
                                   "d6a03eaacbd9d621"};
#elif defined(COASTAL_MARCH_NATIVE)
constexpr RecordedDigests kChannelFirst = {"0df05efcfa522511", "b4eff09f36412b66",
                                   "6aa2c62d5e8736b7", "486b44280cdc5e4d",
                                   "a45d045794a0b51b"};
#else
constexpr RecordedDigests kChannelFirst = {"1d8920c4c3319c88", "5819fca912e93c34",
                                   "02e2121fb81c16dd", "9b92bc36f53366f8",
                                   "0cc655b042080d4b"};
#endif

}  // namespace

TEST(Surrogate, EvalForwardMatchesParentBitwise) {
  ct::NoGradGuard ng;
  Rng rng(31);
  SurrogateModel model(mini_config(), rng);
  model.set_training(false);
  Rng drng(32);
  Tensor vol = Tensor::randn({3, 3, 20, 20, 6, 4}, drng);
  Tensor surf = Tensor::randn({3, 1, 20, 20, 4}, drng);
  auto b1 = model.forward(vol.slice(0, 0, 1), surf.slice(0, 0, 1));
  auto b3 = model.forward(vol, surf);
  coastal::core::SurrogateOutput g3;
  {
    coastal::nn::BatchStatScope grouped(3);
    g3 = model.forward(vol, surf);
  }

  Rng orng(33);
  SurrogateModel odd(odd_config(), orng);
  odd.set_training(false);
  Tensor ovol = Tensor::randn({2, 3, 40, 30, 6, 5}, drng);
  Tensor osurf = Tensor::randn({2, 1, 40, 30, 5}, drng);
  auto o2 = odd.forward(ovol, osurf);

  EXPECT_EQ(hex(digest_of({b1.volume, b1.surface})), kChannelFirst.b1);
  EXPECT_EQ(hex(digest_of({b3.volume, b3.surface})), kChannelFirst.b3);
  EXPECT_EQ(hex(digest_of({g3.volume, g3.surface})), kChannelFirst.grouped3);
  EXPECT_EQ(hex(digest_of({o2.volume, o2.surface})), kChannelFirst.odd);
}

TEST(Surrogate, TrainStepsMatchParentBitwise) {
  // The recorded digest is the channel-first implementation's training at
  // one kernel thread (as the end-to-end benchmark trains); every thread
  // count must reproduce it.
  for (const int threads : {1, 4}) {
    coastal::testing::KernelConfigOverride override_threads;
    ct::kernels::config().num_threads = threads;
    Rng rng(41);
    SurrogateModel model(mini_config(), rng);
    coastal::nn::Adam opt(model.parameters(), 1e-3f);
    Rng drng(42);
    Tensor vol = Tensor::randn({2, 3, 20, 20, 6, 4}, drng);
    Tensor surf = Tensor::randn({2, 1, 20, 20, 4}, drng);
    Tensor tvol = Tensor::randn({2, 3, 20, 20, 6, 3}, drng, 0.1f);
    Tensor tsurf = Tensor::randn({2, 1, 20, 20, 3}, drng, 0.1f);
    for (int step = 0; step < 3; ++step) {
      opt.zero_grad();
      // The last step recomputes each Swin block under checkpointing.
      auto out = model.forward(vol, surf, /*use_checkpoint=*/step == 2);
      ct::mse_loss(out.volume, tvol)
          .add(ct::mse_loss(out.surface, tsurf))
          .backward();
      opt.step();
    }
    EXPECT_EQ(hex(weights_digest_of(model)), kChannelFirst.train)
        << threads << " kernel threads";
  }
}

TEST(Surrogate, EvalForwardMoveCountIsPinned) {
  // Data movement per B = 1 eval forward at the end-to-end shape, counted
  // by the profiler's move counters: 62 moves, 47 strided gathers — the
  // patch embedding (3), the positional tables (2), the head splits and
  // merges (4 per block, 24), patch merging (4), the transposed convs'
  // inputs and weight reorders (12) and the output layout (2) — plus 12
  // window gathers and 3 concats.  A new move on the forward path
  // changes this number.
  Rng rng(51);
  SurrogateModel model(mini_config(), rng);
  model.set_training(false);
  auto in = mini_inputs(52);
  ct::NoGradGuard ng;
  auto& prof = coastal::obs::StageProfiler::instance();
  const bool was = prof.enabled();
  prof.set_enabled(true);
  using coastal::obs::Move;
  auto total = [&] {
    int64_t n = 0;
    for (int m = 0; m < static_cast<int>(Move::kCount); ++m)
      n += prof.moves(static_cast<Move>(m));
    return n;
  };
  const int64_t before = total();
  const int64_t permutes = prof.moves(Move::kPermute);
  const int64_t windows = prof.moves(Move::kWindow);
  model.forward(in.volume, in.surface);
  const int64_t moves = total() - before;
  prof.set_enabled(was);
  EXPECT_EQ(prof.moves(Move::kPermute) - permutes, 47);
  EXPECT_EQ(prof.moves(Move::kWindow) - windows, 12);
  EXPECT_EQ(moves, 62);
  EXPECT_LE(moves, 80);
}

TEST(SurrogateThreads, ConcurrentEvalForwardsMatchSerialBitwise) {
  // One shared eval model, four threads forwarding at once: every window
  // plan and mask was built by the constructor, so the forward writes no
  // model state and each result is bitwise the serial one.
  Rng rng(61);
  SurrogateModel model(mini_config(), rng);
  model.set_training(false);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<Inputs> inputs;
  std::vector<coastal::core::SurrogateOutput> serial;
  {
    ct::NoGradGuard ng;
    for (int i = 0; i < kThreads; ++i) {
      inputs.push_back(mini_inputs(70 + static_cast<uint64_t>(i)));
      serial.push_back(model.forward(inputs.back().volume,
                                     inputs.back().surface));
    }
  }
  std::vector<std::vector<coastal::core::SurrogateOutput>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ct::NoGradGuard ng;
      for (int r = 0; r < kRounds; ++r)
        got[static_cast<size_t>(i)].push_back(model.forward(
            inputs[static_cast<size_t>(i)].volume,
            inputs[static_cast<size_t>(i)].surface));
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i)
    for (const auto& out : got[static_cast<size_t>(i)]) {
      expect_tensor_near(out.volume, serial[static_cast<size_t>(i)].volume,
                         0.0);
      expect_tensor_near(out.surface, serial[static_cast<size_t>(i)].surface,
                         0.0);
    }
}
