#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/env.hpp"

namespace coastal::obs {

namespace {

/// Same mix as util::fault's deterministic Bernoulli draw — sampling
/// must be a pure function of the trace id so a replayed run samples
/// the same requests.
uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}

}  // namespace

int64_t to_us(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(tp -
                                                               trace_epoch())
      .count();
}

int64_t now_us() { return to_us(std::chrono::steady_clock::now()); }

TraceConfig trace_config_from_env(TraceConfig base) {
  if (const char* v = std::getenv("COASTAL_TRACE"); v && *v) {
    char* end = nullptr;
    const double rate = std::strtod(v, &end);
    COASTAL_CHECK_MSG(end != v && *end == '\0' && !std::isnan(rate),
                      "COASTAL_TRACE=\"" << v << "\" is not a sampling rate");
    if (rate <= 0.0) {
      base.enabled = false;
    } else {
      base.enabled = true;
      base.sample_rate = std::min(rate, 1.0);
    }
  }
  if (const auto n = util::env_int("COASTAL_TRACE_RING", 1, 1 << 20)) {
    base.ring_spans = static_cast<int>(*n);
  }
  return base;
}

/// Per-thread span ring.  Owned by the recorder (never freed) so spans
/// survive their writer thread; the per-ring mutex is uncontended on the
/// hot path — only spans()/dump_json() ever take it from another thread.
struct TraceRecorder::Ring {
  std::mutex m;
  std::vector<TraceSpan> buf;  ///< sized once at acquisition
  size_t next = 0;
  size_t used = 0;
};

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* r = new TraceRecorder();  // immortal
  return *r;
}

namespace {

/// Returns the thread's ring to the recorder's free list at thread exit
/// so churning threads (replaced workers, the rank threads every
/// par::World::run spawns) reuse rings instead of growing the list
/// without bound.
struct TlRing {
  TraceRecorder::Ring* ring = nullptr;
  std::vector<TraceRecorder::Ring*>* free_list = nullptr;
  std::mutex* free_m = nullptr;
  ~TlRing() {
    if (ring && free_list) {
      std::lock_guard<std::mutex> lock(*free_m);
      free_list->push_back(ring);
    }
  }
};

thread_local TlRing tl_ring;

}  // namespace

TraceRecorder::Ring* TraceRecorder::acquire_ring() {
  std::lock_guard<std::mutex> lock(rings_m_);
  Ring* r;
  if (!free_rings_.empty()) {
    r = free_rings_.back();
    free_rings_.pop_back();
  } else {
    rings_.push_back(std::make_unique<Ring>());
    r = rings_.back().get();
    r->buf.resize(static_cast<size_t>(
        std::max(1, ring_spans_.load(std::memory_order_relaxed))));
  }
  tl_ring.ring = r;
  tl_ring.free_list = &free_rings_;
  tl_ring.free_m = &rings_m_;
  return r;
}

void TraceRecorder::configure(const TraceConfig& cfg) {
  const double rate = cfg.sample_rate;
  COASTAL_CHECK_MSG(!std::isnan(rate), "trace sample_rate is NaN");
  ring_spans_.store(std::max(1, cfg.ring_spans), std::memory_order_relaxed);
  if (rate >= 1.0) {
    sample_threshold_.store(~0ull, std::memory_order_relaxed);
  } else if (rate <= 0.0) {
    sample_threshold_.store(0, std::memory_order_relaxed);
  } else {
    sample_threshold_.store(
        static_cast<uint64_t>(rate * 18446744073709551615.0),
        std::memory_order_relaxed);
  }
  enabled_.store(cfg.enabled, std::memory_order_relaxed);
}

uint64_t TraceRecorder::begin_trace() {
  if (!enabled()) return 0;
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t threshold =
      sample_threshold_.load(std::memory_order_relaxed);
  if (threshold != ~0ull && splitmix64(id) > threshold) return 0;
  return id;
}

void TraceRecorder::record(const TraceSpan& s) {
  if (s.trace_id == 0 || !enabled()) return;
  Ring* r = tl_ring.ring;
  if (r == nullptr) r = acquire_ring();  // once per thread (warm-up)
  std::lock_guard<std::mutex> lock(r->m);
  r->buf[r->next] = s;
  r->next = (r->next + 1) % r->buf.size();
  if (r->used < r->buf.size()) ++r->used;
}

std::vector<TraceSpan> TraceRecorder::spans() const {
  std::vector<TraceSpan> out;
  std::lock_guard<std::mutex> lock(rings_m_);
  for (const auto& r : rings_) {
    std::lock_guard<std::mutex> rl(r->m);
    for (size_t i = 0; i < r->used; ++i) out.push_back(r->buf[i]);
  }
  return out;
}

std::vector<TraceSpan> TraceRecorder::spans_for(uint64_t trace_id) const {
  std::vector<TraceSpan> all = spans();
  std::vector<TraceSpan> out;
  for (const auto& s : all) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  return out;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(rings_m_);
  for (const auto& r : rings_) {
    std::lock_guard<std::mutex> rl(r->m);
    r->next = 0;
    r->used = 0;
  }
}

namespace {

void append_flags_json(std::string& out, uint32_t flags) {
  static constexpr struct {
    uint32_t bit;
    const char* name;
  } kNames[] = {
      {kError, "error"},
      {kDegraded, "degraded"},
      {kCacheHit, "cache_hit"},
      {kFallback, "fallback"},
      {kFaultRetry, "retried"},
      {kVerifyFailed, "verify_failed"},
      {kPrefixResume, "prefix_resume"},
      {kWorkerLost, "worker_lost"},
  };
  out += "[";
  bool first = true;
  for (const auto& n : kNames) {
    if (!(flags & n.bit)) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += n.name;
    out += "\"";
  }
  out += "]";
}

void append_span_json(std::string& out, const TraceSpan& s, int depth,
                      bool open_children) {
  const std::string pad(static_cast<size_t>(depth) * 2 + 6, ' ');
  out += pad + "{\"stage\": \"" + s.stage + "\"";
  out += ", \"start_us\": " + std::to_string(s.start_us);
  out += ", \"dur_us\": " + std::to_string(s.end_us - s.start_us);
  if (s.flags) {
    out += ", \"flags\": ";
    append_flags_json(out, s.flags);
  }
  if (s.code >= 0) out += ", \"code\": " + std::to_string(s.code);
  if (s.extra != 0) out += ", \"extra\": " + std::to_string(s.extra);
  if (open_children) out += ", \"children\": [";
}

}  // namespace

std::string TraceRecorder::dump_json() const {
  std::vector<TraceSpan> all = spans();
  // Group by trace, then nest by time containment: sorting by
  // (start, -end) makes every span's parent the nearest still-open
  // enclosing interval — no parent ids needed, and it works for spans
  // written by different threads (submitter vs worker).
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.trace_id != b.trace_id)
                       return a.trace_id < b.trace_id;
                     if (a.start_us != b.start_us)
                       return a.start_us < b.start_us;
                     return a.end_us > b.end_us;
                   });
  std::string out = "{\"traces\": [";
  bool first_trace = true;
  size_t i = 0;
  while (i < all.size()) {
    const uint64_t tid = all[i].trace_id;
    size_t j = i;
    while (j < all.size() && all[j].trace_id == tid) ++j;
    out += first_trace ? "\n" : ",\n";
    first_trace = false;
    out += "  {\"trace\": " + std::to_string(tid) + ", \"spans\": [\n";
    // Stack of open intervals; each frame remembers whether it already
    // emitted a child (for commas).
    struct Open {
      int64_t end_us;
      bool has_child = false;
    };
    std::vector<Open> stack;
    for (size_t k = i; k < j; ++k) {
      const TraceSpan& s = all[k];
      // A span is a child of the nearest open interval that contains
      // it; with the (start, -end) sort that is exactly "ends no later
      // than the top" (zero-length spans at a parent's end boundary —
      // resolve markers — stay children).
      while (!stack.empty() && s.end_us > stack.back().end_us) {
        stack.pop_back();
        out += "]}";
      }
      if (!stack.empty()) {
        if (stack.back().has_child) out += ",";
        stack.back().has_child = true;
        out += "\n";
      } else if (k != i) {
        out += ",\n";
      }
      append_span_json(out, s, static_cast<int>(stack.size()), true);
      stack.push_back({s.end_us});
    }
    while (!stack.empty()) {
      stack.pop_back();
      out += "]}";
    }
    out += "\n  ]}";
    i = j;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace coastal::obs
