/// The two screens every request passes in ForecastServer::submit(): the
/// cache key hash (util::KeyHash through ForecastCache::key) and the
/// finiteness screen (util::all_finite).  KeyHash's stripe loop must equal
/// its own word-at-a-time definition at every lane alignment, digest p of
/// a chain must be the p-episode window's key, and salted windows must key
/// apart; all_finite must catch every NaN/Inf position and pass every
/// finite edge value.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "data/sample.hpp"
#include "serve/cache.hpp"
#include "util/finite.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace data = coastal::data;
namespace serve = coastal::serve;
namespace util = coastal::util;

namespace {

/// KeyHash::update_bytes spelled out one word at a time: the byte count,
/// then every 8-byte word, then the zero-padded tail.
void update_bytes_by_word(util::KeyHash& h, const unsigned char* b,
                          size_t n) {
  h.update_u64(static_cast<uint64_t>(n));
  for (; n >= 8; b += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, b, 8);
    h.update_u64(w);
  }
  if (n > 0) {
    uint64_t w = 0;
    std::memcpy(&w, b, n);
    h.update_u64(w);
  }
}

std::vector<unsigned char> random_bytes(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& c : out) c = static_cast<unsigned char>(rng.uniform() * 256.0);
  return out;
}

/// The e2e world's geometry: 20x20x6 frames, T = 3.
const data::SampleSpec& spec() {
  static const data::SampleSpec s = data::make_spec(20, 20, 6, 3, 4, 2);
  return s;
}

std::vector<data::CenterFields> random_window(size_t frames, uint64_t seed) {
  util::Rng rng(seed);
  const size_t n3 = 6u * 20 * 20, n2 = 20u * 20;
  std::vector<data::CenterFields> out(frames);
  for (auto& f : out) {
    f.nx = 20;
    f.ny = 20;
    f.nz = 6;
    for (auto* v : {&f.u, &f.v, &f.w}) {
      v->resize(n3);
      for (auto& x : *v) x = static_cast<float>(rng.normal());
    }
    f.zeta.resize(n2);
    for (auto& x : f.zeta) x = static_cast<float>(rng.normal());
  }
  return out;
}

/// Overwrite the low 12 mantissa bits of `x`, as the e2e bench stamps a
/// request's salt into a boundary ζ cell.
void stamp_salt(float& x, uint32_t bits12) {
  uint32_t b = std::bit_cast<uint32_t>(x);
  b = (b & ~0xFFFu) | (bits12 & 0xFFFu);
  x = std::bit_cast<float>(b);
}

}  // namespace

TEST(KeyHash, StripeLoopMatchesWordAtATimeAtEveryLaneAlignment) {
  // Lengths straddle the stripe (64 bytes) and cover ragged tails; the
  // largest is one 20x20x6 field.
  const std::vector<size_t> lengths = {0,  1,   7,   8,   9,    56,  63,
                                       64, 65,  127, 128, 129,  200, 511,
                                       512, 520, 1000, 6 * 20 * 20 * 4};
  const auto bytes = random_bytes(lengths.back() + 16, 1);
  for (size_t offset = 0; offset < util::KeyHash::kLanes; ++offset) {
    for (const size_t n : lengths) {
      util::KeyHash fast, ref;
      for (size_t i = 0; i < offset; ++i) {
        fast.update_u64(i * 977 + 3);
        ref.update_u64(i * 977 + 3);
      }
      fast.update_bytes(bytes.data() + 3, n);
      update_bytes_by_word(ref, bytes.data() + 3, n);
      ASSERT_EQ(fast.digest(), ref.digest())
          << "offset " << offset << " words, " << n << " bytes";
      // The stream goes on identically after the run.
      fast.update_i64(-5);
      ref.update_i64(-5);
      fast.update_bytes(bytes.data(), n / 2);
      update_bytes_by_word(ref, bytes.data(), n / 2);
      ASSERT_EQ(fast.digest(), ref.digest())
          << "offset " << offset << " words, " << n << " bytes, continued";
    }
  }
}

TEST(KeyHash, FramingSeparatesTailsAndOrder) {
  const unsigned char abc[4] = {'a', 'b', 'c', 0};
  auto digest_of = [](const void* p, size_t n) {
    util::KeyHash h;
    h.update_bytes(p, n);
    return h.digest();
  };
  EXPECT_NE(digest_of(abc, 3), digest_of(abc, 4));
  EXPECT_NE(digest_of(abc, 0), util::KeyHash{}.digest());
  util::KeyHash ab, ba;
  ab.update_u64(1);
  ab.update_u64(2);
  ba.update_u64(2);
  ba.update_u64(1);
  EXPECT_NE(ab.digest(), ba.digest());
  // Equal words in different lanes land differently.
  util::KeyHash zeros1, zeros2;
  for (size_t i = 0; i < util::KeyHash::kLanes; ++i) zeros1.update_u64(0);
  for (size_t i = 0; i < 2 * util::KeyHash::kLanes; ++i) zeros2.update_u64(0);
  EXPECT_NE(zeros1.digest(), zeros2.digest());
}

TEST(KeyHash, EpisodeBoundaryDigestIsThePrefixWindowsKey) {
  const int episodes = 4;
  const int T = spec().T;
  const auto window = random_window(static_cast<size_t>(episodes * T) + 1, 2);
  const auto full = serve::ForecastCache::key(3, 7, spec(), window);
  ASSERT_EQ(full.digests.size(), static_cast<size_t>(episodes));
  for (int p = 1; p <= episodes; ++p) {
    const auto prefix = serve::ForecastCache::key(
        3, 7, spec(),
        std::span(window).first(static_cast<size_t>(p * T) + 1));
    ASSERT_EQ(prefix.digests.size(), static_cast<size_t>(p));
    EXPECT_EQ(full.digests[static_cast<size_t>(p - 1)], prefix.digests.back())
        << "episode " << p;
  }
  // Model slot and version are part of the key.
  EXPECT_NE(serve::ForecastCache::key(3, 8, spec(), window).digests.back(),
            full.digests.back());
  EXPECT_NE(serve::ForecastCache::key(4, 7, spec(), window).digests.back(),
            full.digests.back());
}

TEST(KeyHash, SaltedWindowsKeyApart) {
  // serve_unique's traffic: one 4-frame window, a distinct 24-bit salt
  // per request stamped 12 bits each into two frame-1 ζ cells on the
  // western boundary.
  auto window = random_window(4, 3);
  const size_t nx = 20;
  float& cell_a = window[1].zeta[0];
  float& cell_b = window[1].zeta[nx];
  const int kWindows = 100000;
  std::vector<uint64_t> digests;
  digests.reserve(kWindows);
  for (int i = 0; i < kWindows; ++i) {
    const auto salt = static_cast<uint32_t>(i + 1);
    stamp_salt(cell_a, salt);
    stamp_salt(cell_b, salt >> 12);
    digests.push_back(
        serve::ForecastCache::key(0, 0, spec(), window).digests.back());
  }
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(std::unique(digests.begin(), digests.end()) - digests.begin(),
            kWindows);
}

TEST(AllFinite, EveryNonFiniteAtEveryIndexFails) {
  const float bad[] = {
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::bit_cast<float>(0x7F800001u),  // signalling NaN, lowest payload
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity()};
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 67; ++n) lengths.push_back(n);
  lengths.push_back(30400);  // the e2e window's 4 frames of floats
  for (const size_t n : lengths) {
    // A misaligned start too: vector loops peel and tail differently.
    for (const size_t start : {size_t{0}, size_t{1}, size_t{3}}) {
      std::vector<float> buf(start + n);
      for (size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<float>(i % 13) - 6.5f;
      }
      const std::span<const float> v(buf.data() + start, n);
      ASSERT_TRUE(util::all_finite(v)) << "n " << n;
      if (n > 1000 && start != 0) continue;
      for (size_t i = 0; i < n; ++i) {
        const float keep = buf[start + i];
        for (const float x : bad) {
          buf[start + i] = x;
          ASSERT_FALSE(util::all_finite(v))
              << "n " << n << " start " << start << " index " << i
              << " bits 0x" << std::hex << std::bit_cast<uint32_t>(x);
        }
        buf[start + i] = keep;
      }
    }
  }
}

TEST(AllFinite, FiniteEdgeValuesPass) {
  const std::vector<float> edge = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::bit_cast<float>(0x007FFFFFu),  // largest denormal
      FLT_MIN,
      FLT_MAX,
      -FLT_MAX};
  EXPECT_TRUE(util::all_finite(edge));
  for (const float x : edge) {
    std::vector<float> one(37, 1.0f);
    one[17] = x;
    EXPECT_TRUE(util::all_finite(one)) << x;
  }
}
