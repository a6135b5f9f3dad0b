#pragma once

/// \file hash.hpp
/// Streaming 64-bit content hashes.
///
/// ContentHash is the repo's digest: weights, archives and the solver
/// pins record its values.  splitmix64's finalizer supplies the mixing;
/// the stream is absorbed word-at-a-time with each word's position folded
/// in, so reordered or shifted payloads land in different buckets.
///
/// KeyHash keys the serving cache (serve/cache.hpp), which only needs a
/// fast, well-mixed index — collisions are resolved by a full byte
/// compare on probe, never trusted.  It absorbs the same word stream into
/// independent lanes, about 6x faster than ContentHash's one serial chain.
///
/// Both hashers are small copyable values: `digest()` snapshots the state
/// without finalizing the stream, which is what lets one pass over an
/// e-episode window yield the key of every episode-boundary prefix
/// (digest after frame p*T+1 == the key a p-episode request would hash).

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace coastal::util {

class ContentHash {
 public:
  void update_u64(uint64_t x) {
    state_ = mix64(state_ ^ mix64(x + kGolden * ++words_));
  }

  void update_i64(int64_t x) { update_u64(static_cast<uint64_t>(x)); }

  /// Absorb raw bytes (word-at-a-time; the tail is zero-padded and the
  /// byte count is folded in, so "abc" and "abc\0" differ).
  void update_bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    update_u64(static_cast<uint64_t>(n));
    while (n >= 8) {
      uint64_t w;
      std::memcpy(&w, b, 8);
      update_u64(w);
      b += 8;
      n -= 8;
    }
    if (n > 0) {
      uint64_t w = 0;
      std::memcpy(&w, b, n);
      update_u64(w);
    }
  }

  void update_f32(std::span<const float> v) {
    update_bytes(v.data(), v.size() * sizeof(float));
  }

  /// Snapshot of the running state; absorbing more data keeps extending
  /// the same stream.
  uint64_t digest() const { return mix64(state_ + kGolden); }

 private:
  static constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;

  static uint64_t mix64(uint64_t z) {
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ull;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z;
  }

  uint64_t state_ = kGolden;
  uint64_t words_ = 0;
};

/// Multi-lane hash over ContentHash's word stream (same framing: a byte
/// count before each byte run, the tail word zero-padded).  Word j feeds
/// lane j mod kLanes through an xxh64 round, so the lanes' multiply
/// chains overlap instead of queueing; `digest()` folds the lanes and the
/// word count with xxh64's merge and avalanche.
class KeyHash {
 public:
  static constexpr size_t kLanes = 8;

  void update_u64(uint64_t x) {
    uint64_t& acc = acc_[words_ % kLanes];
    acc = round(acc, x);
    ++words_;
  }

  void update_i64(int64_t x) { update_u64(static_cast<uint64_t>(x)); }

  void update_bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    update_u64(static_cast<uint64_t>(n));
    // Single words up to lane 0, then whole stripes of kLanes words.
    for (; n >= 8 && words_ % kLanes != 0; b += 8, n -= 8) {
      update_u64(load(b));
    }
    for (; n >= 8 * kLanes; b += 8 * kLanes, n -= 8 * kLanes) {
      for (size_t l = 0; l < kLanes; ++l) {
        acc_[l] = round(acc_[l], load(b + 8 * l));
      }
      words_ += kLanes;
    }
    for (; n >= 8; b += 8, n -= 8) update_u64(load(b));
    if (n > 0) {
      uint64_t w = 0;
      std::memcpy(&w, b, n);
      update_u64(w);
    }
  }

  void update_f32(std::span<const float> v) {
    update_bytes(v.data(), v.size() * sizeof(float));
  }

  /// Snapshot of the running state; absorbing more data keeps extending
  /// the same stream.
  uint64_t digest() const {
    uint64_t h = words_ * kP5;
    for (size_t l = 0; l < kLanes; ++l) {
      h = std::rotl(h, 27) ^ round(0, acc_[l]);
      h = h * kP1 + kP4;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  // xxh64's primes.
  static constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

  static uint64_t round(uint64_t acc, uint64_t w) {
    return std::rotl(acc + w * kP2, 31) * kP1;
  }

  static uint64_t load(const unsigned char* b) {
    uint64_t w;
    std::memcpy(&w, b, 8);
    return w;
  }

  /// Distinct lane seeds, so equal words in different lanes differ.
  static constexpr std::array<uint64_t, kLanes> seeds() {
    std::array<uint64_t, kLanes> s{};
    for (size_t l = 0; l < kLanes; ++l) s[l] = kP1 * (l + 1) + kP2;
    return s;
  }

  std::array<uint64_t, kLanes> acc_ = seeds();
  uint64_t words_ = 0;
};

}  // namespace coastal::util
