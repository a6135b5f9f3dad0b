#pragma once

/// \file cache.hpp
/// Content-addressed forecast result cache with prefix reuse.
///
/// Production forecast traffic is dominated by near-duplicates across
/// time: the same domain re-requested every tidal cycle, shifted lead
/// times, shared initial-condition prefixes.  PR 5's identical-episode
/// collapse only dedups *in-flight* windows; this cache extends the same
/// idea across requests.  It is *provably* safe because rollouts are
/// bitwise-deterministic (the invariant pinned since PR 1): a hit is, by
/// construction, the exact bytes a recompute would produce.
///
/// Keying.  An entry is addressed by a streaming content hash
/// (util::ContentHash) over (model slot id, model version, SampleSpec,
/// then every window frame's dims and u/v/w/zeta bytes).  The hash is an
/// index, never a proof: a probe only hits after a full byte compare of
/// the stored window, so a collision degrades to a miss, not a wrong
/// answer.  Frame `time` is deliberately excluded — it matches the
/// coalescing predicate (serve/server.cpp's same_window): the surrogate
/// and the verifier read only field bytes, time only anchors the
/// numerical fallback, and fallback results are never admitted.
///
/// Prefix reuse.  Requests may span e chained episodes (window of e*T+1
/// frames).  One pass over the window snapshots the hash at every episode
/// boundary, so digest p is exactly the key a p-episode request would
/// produce.  A probe first tries the exact key, then walks p = e-1..1:
/// a prefix hit returns the cached p*T frames plus their verdict, and the
/// server resumes the chain from the cached final frame: the chain joins
/// the batch's stacked forwards at episode step p instead of 0, bitwise
/// identical to the full recompute by rollout determinism.
///
/// Verdicts.  Entries store the verification verdict (including the raw
/// pair-sum behind its mean, see VerificationResult::pair_sum) so an
/// exact hit skips re-verification entirely and a prefix hit re-verifies
/// only the fresh suffix (MassVerifier::extend_sequence), both bitwise
/// equal to a cold full pass.
///
/// Admission is the server's job (degraded / fallback / faulted results
/// never reach insert()); the cache adds one last line of defense — an
/// unverified payload is finite-scanned before admission, so a NaN'd
/// episode can never be served from cache.
///
/// Storage: frame payloads live in pooled tensor::Storage (PR 4), so a
/// warm hit performs zero tensor-layer heap allocations.  Eviction is LRU
/// under a byte budget; there is no expiry, because an entry's key is its
/// window's content: a revised input is a different key, never a stale
/// hit.  All operations are thread-safe behind one mutex.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/verification.hpp"
#include "data/center_fields.hpp"
#include "data/sample.hpp"
#include "obs/registry.hpp"
#include "tensor/storage.hpp"

namespace coastal::serve {

/// Cache knobs (ServerConfig::cache).  Env overrides via
/// cache_policy_from_env: COASTAL_CACHE (0 or 1), COASTAL_CACHE_BYTES.  A
/// p-episode entry always serves as a resume point for requests longer
/// than p episodes (prefix reuse).
struct CachePolicy {
  bool enabled = true;
  /// Byte budget over cached payloads (stored window + result frames,
  /// 4 bytes per float).  LRU-evicts past this.
  uint64_t max_bytes = 256ull << 20;
};

/// Apply COASTAL_CACHE* environment overrides on top of `base`.
CachePolicy cache_policy_from_env(CachePolicy base);

/// Counters; all cumulative since construction except bytes/entries.
struct CacheStatsSnapshot {
  uint64_t hits = 0;         ///< exact probes served from cache
  uint64_t prefix_hits = 0;  ///< probes resumed from a shorter entry
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;  ///< LRU / collision-displacement removals
  uint64_t rejected = 0;   ///< inserts refused (non-finite, oversized)
  uint64_t bytes = 0;      ///< accounted payload bytes currently held
  uint64_t entries = 0;
};

class ForecastCache {
 public:
  /// `registry` (non-owning, may be null) hosts the cache's counters and
  /// gauges — ForecastServer passes its own so one snapshot reports
  /// server and cache metrics together.  A standalone cache (tests,
  /// direct use) owns a private registry instead; either way the
  /// counters feed CacheStatsSnapshot identically.
  explicit ForecastCache(const CachePolicy& policy,
                         obs::Registry* registry = nullptr);
  ~ForecastCache();
  ForecastCache(const ForecastCache&) = delete;
  ForecastCache& operator=(const ForecastCache&) = delete;

  /// A window's cache key: the content hash snapshotted at every episode
  /// boundary (`digests[p-1]` addresses the p-episode prefix, `back()`
  /// the whole window) plus the identity the byte compare re-checks.
  /// Hashing is the expensive part of a probe, so a server builds the key
  /// once per request and hands it to every probe and insert of that
  /// window.
  struct Key {
    int model_id = 0;
    int version = 0;
    data::SampleSpec spec;
    std::vector<uint64_t> digests;
  };

  /// Hash `window` (e*T+1 normalized frames) for (model_id, version,
  /// spec).  A window shorter than one episode yields no digests, which
  /// every probe treats as a miss.
  static Key key(int model_id, int version, const data::SampleSpec& spec,
                 std::span<const data::CenterFields> window);

  /// Probe outcome.  `hit` is an exact match: `frames` are the full
  /// result and `verdict`/`verified` apply as-is.  `prefix` means a
  /// p-episode ancestor matched: `frames` are its p*T frames (episodes
  /// tells p) and the verdict covers only that prefix — the caller
  /// resumes the chain and extends the verdict.  Both false: miss.
  struct Probe {
    bool hit = false;
    bool prefix = false;
    int episodes = 0;  ///< episodes covered by the returned frames
    std::vector<data::CenterFields> frames;
    core::VerificationResult verdict;
    bool verified = false;
  };

  /// Look up `window` under its precomputed `key`.  Refreshes LRU
  /// recency on hit.  A full probe tries the exact key, then every
  /// shorter episode-boundary prefix, and counts one hit, prefix hit or
  /// miss.  `exact_only` looks up the whole window alone and counts only
  /// a hit — the admission probe, whose misses go on to a full probe.
  Probe probe(const Key& key, std::span<const data::CenterFields> window,
              bool exact_only = false);

  /// Admit a served result under the window's precomputed `key`:
  /// `frames` are the episodes*T decoded frames for `window`
  /// (episodes*T+1 frames).  The caller guarantees the result is the
  /// healthy surrogate path (no fallback, no degraded mode, no entry
  /// error); unverified payloads are finite-scanned here.  Re-inserting
  /// an existing key refreshes its recency.  Must not be called inside a
  /// tensor::ArenaScope — cached storage must outlive any episode arena
  /// (enforced with a CheckError).
  void insert(const Key& key, std::span<const data::CenterFields> window,
              const std::vector<data::CenterFields>& frames,
              const core::VerificationResult& verdict, bool verified);

  /// Drop every entry (model swap / reload invalidation).  Counters are
  /// cumulative and survive; bytes/entries drop to zero.
  void clear();

  CacheStatsSnapshot stats() const;
  const CachePolicy& policy() const { return policy_; }

 private:
  struct Entry;

  /// True when `entry` stores exactly the first p*T+1 frames of `window`
  /// for the key's (model, version, spec) — the byte compare that makes a
  /// hash collision a miss.  Caller holds mutex_.
  bool matches_locked(const Entry& entry, const Key& key,
                      std::span<const data::CenterFields> window) const;

  void touch_locked(uint64_t digest);
  void erase_locked(uint64_t digest);
  void fill_probe_locked(const Entry& entry, Probe& out) const;

  CachePolicy policy_;
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, std::unique_ptr<Entry>> entries_;
  std::list<uint64_t> lru_;  ///< front = most recently used
  uint64_t bytes_ = 0;
  /// Engaged only when no external registry was given; counters below
  /// point into it (or into the caller's registry) either way.  Every
  /// increment happens under mutex_, so stats() reads are exact.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* prefix_hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* inserts_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* rejected_ = nullptr;
};

}  // namespace coastal::serve
