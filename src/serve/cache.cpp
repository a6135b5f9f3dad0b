#include "serve/cache.hpp"

#include <cstring>

#include "util/check.hpp"
#include "util/env.hpp"
#include "util/finite.hpp"
#include "util/hash.hpp"

namespace coastal::serve {

namespace {

size_t frame_floats(const data::SampleSpec& spec) {
  const size_t n3 = static_cast<size_t>(spec.src_nz) * spec.src_ny *
                    spec.src_nx;
  const size_t n2 = static_cast<size_t>(spec.src_ny) * spec.src_nx;
  return 3 * n3 + n2;
}

/// Pack a frame's fields (u|v|w|zeta) at `dst` — the entry's flat layout.
void pack_frame(float* dst, const data::CenterFields& f) {
  auto put = [&](const std::vector<float>& v) {
    std::memcpy(dst, v.data(), v.size() * sizeof(float));
    dst += v.size();
  };
  put(f.u);
  put(f.v);
  put(f.w);
  put(f.zeta);
}

/// Bitwise compare a frame against its packed form.
bool frame_equals(const float* packed, const data::CenterFields& f) {
  auto eq = [&](const std::vector<float>& v) {
    const bool same =
        std::memcmp(packed, v.data(), v.size() * sizeof(float)) == 0;
    packed += v.size();
    return same;
  };
  return eq(f.u) && eq(f.v) && eq(f.w) && eq(f.zeta);
}

bool frames_finite(const std::vector<data::CenterFields>& frames) {
  for (const auto& f : frames) {
    if (!util::all_finite(f.u) || !util::all_finite(f.v) ||
        !util::all_finite(f.w) || !util::all_finite(f.zeta)) {
      return false;
    }
  }
  return true;
}

}  // namespace

struct ForecastCache::Entry {
  int model_id = 0;
  int version = 0;
  data::SampleSpec spec;
  int episodes = 0;
  int nx = 0, ny = 0, nz = 0;
  tensor::Storage window;  ///< (episodes*T + 1) packed key frames
  tensor::Storage frames;  ///< episodes*T packed result frames
  std::vector<double> frame_times;  ///< CenterFields::time fidelity
  core::VerificationResult verdict;
  bool verified = false;
  uint64_t bytes = 0;
  std::list<uint64_t>::iterator lru_it;
};

ForecastCache::ForecastCache(const CachePolicy& policy,
                             obs::Registry* registry)
    : policy_(policy) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->counter("coastal_cache_hits_total",
                            "Exact cache hits (served with no forward)");
  prefix_hits_ =
      registry->counter("coastal_cache_prefix_hits_total",
                        "Chains resumed from a cached prefix entry");
  misses_ = registry->counter("coastal_cache_misses_total", "Cache misses");
  inserts_ =
      registry->counter("coastal_cache_inserts_total", "Entries admitted");
  evictions_ = registry->counter(
      "coastal_cache_evictions_total",
      "LRU and collision-displacement removals");
  rejected_ = registry->counter(
      "coastal_cache_rejected_total",
      "Inserts refused (non-finite payload or oversized entry)");
  registry->gauge_fn("coastal_cache_bytes",
                     "Accounted payload bytes currently cached", [this] {
                       std::lock_guard<std::mutex> lock(mutex_);
                       return static_cast<double>(bytes_);
                     });
  registry->gauge_fn("coastal_cache_entries", "Entries currently cached",
                     [this] {
                       std::lock_guard<std::mutex> lock(mutex_);
                       return static_cast<double>(entries_.size());
                     });
}
ForecastCache::~ForecastCache() = default;

CachePolicy cache_policy_from_env(CachePolicy base) {
  base.enabled = util::env_flag("COASTAL_CACHE").value_or(base.enabled);
  if (const auto v =
          util::env_int("COASTAL_CACHE_BYTES", 0, int64_t{1} << 40)) {
    base.max_bytes = static_cast<uint64_t>(*v);
  }
  return base;
}

ForecastCache::Key ForecastCache::key(
    int model_id, int version, const data::SampleSpec& spec,
    std::span<const data::CenterFields> window) {
  const int T = spec.T;
  Key out{model_id, version, spec, {}};
  util::KeyHash h;
  h.update_i64(model_id);
  h.update_i64(version);
  h.update_i64(spec.H);
  h.update_i64(spec.W);
  h.update_i64(spec.D);
  h.update_i64(spec.T);
  h.update_i64(spec.src_ny);
  h.update_i64(spec.src_nx);
  h.update_i64(spec.src_nz);
  out.digests.reserve(window.size() / static_cast<size_t>(T));
  for (size_t i = 0; i < window.size(); ++i) {
    const auto& f = window[i];
    h.update_i64(f.nx);
    h.update_i64(f.ny);
    h.update_i64(f.nz);
    h.update_f32(f.u);
    h.update_f32(f.v);
    h.update_f32(f.w);
    h.update_f32(f.zeta);
    // One snapshot per episode boundary: after absorbing frame p*T the
    // stream has seen exactly the p-episode prefix window.
    if (i > 0 && i % static_cast<size_t>(T) == 0) {
      out.digests.push_back(h.digest());
    }
  }
  return out;
}

bool ForecastCache::matches_locked(
    const Entry& entry, const Key& key,
    std::span<const data::CenterFields> window) const {
  if (entry.model_id != key.model_id || entry.version != key.version ||
      !(entry.spec == key.spec)) {
    return false;
  }
  const size_t nframes =
      static_cast<size_t>(entry.episodes) * key.spec.T + 1;
  if (window.size() < nframes) return false;
  const size_t ff = frame_floats(key.spec);
  const float* packed = entry.window.data();
  for (size_t i = 0; i < nframes; ++i) {
    const auto& f = window[i];
    if (f.nx != entry.nx || f.ny != entry.ny || f.nz != entry.nz) return false;
    if (!frame_equals(packed, f)) return false;
    packed += ff;
  }
  return true;
}

void ForecastCache::touch_locked(uint64_t digest) {
  auto it = entries_.find(digest);
  lru_.erase(it->second->lru_it);
  lru_.push_front(digest);
  it->second->lru_it = lru_.begin();
}

void ForecastCache::erase_locked(uint64_t digest) {
  auto it = entries_.find(digest);
  bytes_ -= it->second->bytes;
  lru_.erase(it->second->lru_it);
  entries_.erase(it);
}

void ForecastCache::fill_probe_locked(const Entry& entry, Probe& out) const {
  const size_t n3 =
      static_cast<size_t>(entry.nz) * entry.ny * entry.nx;
  const size_t n2 = static_cast<size_t>(entry.ny) * entry.nx;
  const size_t count = static_cast<size_t>(entry.episodes) * entry.spec.T;
  out.episodes = entry.episodes;
  out.verdict = entry.verdict;
  out.verified = entry.verified;
  out.frames.resize(count);
  const float* p = entry.frames.data();
  for (size_t t = 0; t < count; ++t) {
    auto& f = out.frames[t];
    f.nx = entry.nx;
    f.ny = entry.ny;
    f.nz = entry.nz;
    f.time = entry.frame_times[t];
    f.u.assign(p, p + n3);
    p += n3;
    f.v.assign(p, p + n3);
    p += n3;
    f.w.assign(p, p + n3);
    p += n3;
    f.zeta.assign(p, p + n2);
    p += n2;
  }
}

ForecastCache::Probe ForecastCache::probe(
    const Key& key, std::span<const data::CenterFields> window,
    bool exact_only) {
  Probe out;
  const auto& digests = key.digests;
  if (!policy_.enabled || digests.empty()) return out;
  std::lock_guard<std::mutex> lock(mutex_);
  // Exact key first, then every shorter episode-boundary prefix.
  for (size_t p = digests.size(); p >= 1; --p) {
    const bool exact = p == digests.size();
    if (!exact && exact_only) break;
    const uint64_t digest = digests[p - 1];
    auto it = entries_.find(digest);
    if (it == entries_.end()) continue;
    Entry& entry = *it->second;
    if (static_cast<size_t>(entry.episodes) != p ||
        !matches_locked(entry, key, window)) {
      continue;  // collision: a different window hashed here
    }
    touch_locked(digest);
    fill_probe_locked(entry, out);
    out.hit = exact;
    out.prefix = !exact;
    if (exact) {
      hits_->inc();
    } else {
      prefix_hits_->inc();
    }
    return out;
  }
  if (!exact_only) misses_->inc();
  return out;
}

void ForecastCache::insert(const Key& key,
                           std::span<const data::CenterFields> window,
                           const std::vector<data::CenterFields>& frames,
                           const core::VerificationResult& verdict,
                           bool verified) {
  if (!policy_.enabled) return;
  const data::SampleSpec& spec = key.spec;
  COASTAL_CHECK_MSG(!tensor::ArenaScope::active(),
                    "cache fills must happen outside episode arenas: "
                    "arena-backed entries die with the scope");
  COASTAL_CHECK_MSG(spec.T > 0 && !frames.empty() &&
                        frames.size() % static_cast<size_t>(spec.T) == 0 &&
                        window.size() == frames.size() + 1,
                    "cache insert needs e*T frames and an e*T+1 window");
  const int episodes = static_cast<int>(frames.size()) / spec.T;
  COASTAL_CHECK_MSG(key.digests.size() == static_cast<size_t>(episodes),
                    "cache key does not describe the inserted window");
  const int nx = window.front().nx, ny = window.front().ny,
            nz = window.front().nz;
  for (const auto& f : window) {
    COASTAL_CHECK(f.nx == nx && f.ny == ny && f.nz == nz);
  }
  for (const auto& f : frames) {
    COASTAL_CHECK(f.nx == nx && f.ny == ny && f.nz == nz);
  }
  // Last line of defense: an unverified payload is only admitted finite —
  // a poisoned (NaN'd) episode must never be servable from cache.  When
  // verified, the verdict's pass already certified finiteness upstream.
  if (!verified && !frames_finite(frames)) {
    std::lock_guard<std::mutex> lock(mutex_);
    rejected_->inc();
    return;
  }

  const size_t ff = frame_floats(spec);
  const uint64_t entry_bytes =
      static_cast<uint64_t>(window.size() + frames.size()) * ff *
      sizeof(float);
  const uint64_t digest = key.digests.back();

  auto entry = std::make_unique<Entry>();
  entry->model_id = key.model_id;
  entry->version = key.version;
  entry->spec = spec;
  entry->episodes = episodes;
  entry->nx = nx;
  entry->ny = ny;
  entry->nz = nz;
  entry->window = tensor::Storage::uninit(
      static_cast<int64_t>(window.size() * ff));
  entry->frames =
      tensor::Storage::uninit(static_cast<int64_t>(frames.size() * ff));
  for (size_t i = 0; i < window.size(); ++i) {
    pack_frame(entry->window.data() + i * ff, window[i]);
  }
  entry->frame_times.reserve(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    pack_frame(entry->frames.data() + i * ff, frames[i]);
    entry->frame_times.push_back(frames[i].time);
  }
  entry->verdict = verdict;
  entry->verified = verified;
  entry->bytes = entry_bytes;

  std::lock_guard<std::mutex> lock(mutex_);
  if (entry_bytes > policy_.max_bytes) {
    rejected_->inc();  // would evict the whole cache and still not fit
    return;
  }
  if (auto it = entries_.find(digest); it != entries_.end()) {
    if (matches_locked(*it->second, key, window)) {
      touch_locked(digest);  // identical content: refresh recency only
      return;
    }
    erase_locked(digest);  // collision displacement
    evictions_->inc();
  }
  lru_.push_front(digest);
  entry->lru_it = lru_.begin();
  bytes_ += entry_bytes;
  entries_.emplace(digest, std::move(entry));
  inserts_->inc();
  while (bytes_ > policy_.max_bytes) {
    erase_locked(lru_.back());
    evictions_->inc();
  }
}

void ForecastCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

CacheStatsSnapshot ForecastCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStatsSnapshot s;
  s.hits = static_cast<uint64_t>(hits_->value());
  s.prefix_hits = static_cast<uint64_t>(prefix_hits_->value());
  s.misses = static_cast<uint64_t>(misses_->value());
  s.inserts = static_cast<uint64_t>(inserts_->value());
  s.evictions = static_cast<uint64_t>(evictions_->value());
  s.rejected = static_cast<uint64_t>(rejected_->value());
  s.bytes = bytes_;
  s.entries = entries_.size();
  return s;
}

}  // namespace coastal::serve
