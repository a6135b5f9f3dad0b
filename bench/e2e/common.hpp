#pragma once

/// \file common.hpp
/// Shared pieces of the end-to-end benchmark: the miniature world every
/// workload runs on, the run context, result collection, the benchmark's
/// own span recorder, and small statistics helpers.
///
/// The benchmark drives the library only through its public entry points
/// (core::run_workflow, ForecastServer::submit, core::train, and the
/// per-layer functions the traced walk calls), so it measures the code a
/// user runs, from outside.

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/surrogate.hpp"
#include "core/workflow.hpp"
#include "data/dataset.hpp"
#include "ocean/archive.hpp"
#include "ocean/bathymetry.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// The speed of the core the calling thread runs on.  On a shared host,
/// other tenants' threads on the same physical cores slow a core down by
/// up to 2x, in bursts of 0.1-0.3 s whose share of the time drifts over
/// minutes; no time is stolen (CPU time slows as much as wall time), so
/// identical work measured minutes apart differs by more than any useful
/// regression bound.  A CoreSpeed pins the calling thread to its current
/// core, and a second thread pinned to the same core times a fixed
/// reference computation every 10 ms (about 1% of the core).  A unit of
/// work's wall time divided by the core's mean slowdown over the unit is
/// its time at reference speed.  Threads the caller starts while pinned
/// stay on the core, such as the training loader's or a server's workers.
class CoreSpeed {
 public:
  CoreSpeed();
  /// Stops sampling and, unless released, restores the caller's affinity.
  ~CoreSpeed();
  CoreSpeed(const CoreSpeed&) = delete;
  CoreSpeed& operator=(const CoreSpeed&) = delete;

  /// Restores the calling thread's affinity (call it from the thread that
  /// constructed this); sampling goes on.
  void release();
  /// The core's mean slowdown over [t0, t1] against the reference (1 =
  /// reference speed, 1.3 = 30% slower); 1 if no sample was taken near.
  double slowdown(Clock::time_point t0, Clock::time_point t1) const;
  /// Median slowdown over every sample so far.
  double median_slowdown() const;

 private:
  void sample_loop();

  int cpu_;
  cpu_set_t saved_;  ///< the caller's affinity before pinning
  bool pinned_ = true;
  mutable std::mutex m_;
  std::vector<std::pair<Clock::time_point, double>> samples_;  ///< by m_
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One unit of closed-loop work: its wall time, and its time at reference
/// speed.
struct UnitTime {
  double wall_ms;
  double ref_ms;
};

template <class F>
UnitTime time_unit(const CoreSpeed& core, F&& work) {
  const auto t0 = Clock::now();
  work();
  const auto t1 = Clock::now();
  const double wall = ms_between(t0, t1);
  return {wall, wall / core.slowdown(t0, t1)};
}

// ---------------------------------------------------------------------------
// The miniature world
// ---------------------------------------------------------------------------

/// Fixed world: a 20x20x6 estuary (bathymetry seed 42), dt = 10 s,
/// snapshots every 1800 s; a 30-hour training archive and a 14-day test
/// archive that continues the same ocean.  T = 3.  Nothing here depends
/// on the workload seed.
struct World {
  coastal::ocean::Grid grid{20, 20, 6, 400.0, 400.0};
  coastal::ocean::TidalForcing tides =
      coastal::ocean::TidalForcing::gulf_coast_default();
  coastal::ocean::PhysicsParams params;

  std::vector<coastal::data::CenterFields> test_fields;       ///< denormalized
  std::vector<coastal::data::CenterFields> test_fields_norm;  ///< normalized
  double test_t0 = 0.0;

  coastal::data::Dataset train_set;
  coastal::core::SurrogateConfig model_config;
  std::unique_ptr<coastal::core::SurrogateModel> model;

  const coastal::data::SampleSpec& spec() const { return train_set.spec; }
  const coastal::data::Normalizer& norm() const {
    return train_set.normalizer;
  }
};

constexpr double kSnapshotDt = 1800.0;
constexpr int kT = 3;

/// Build the world under `work_dir` (sample stores are written there),
/// with an untrained surrogate.
std::unique_ptr<World> make_world(const std::string& work_dir);

/// Train the world's surrogate for 8 epochs at lr 2e-3 with fixed seeds,
/// so the weights are the same on every run.
void train_world_model(World& w);

/// A fresh, untrained surrogate with the world's architecture (model
/// seed 7, as make_world uses).
std::unique_ptr<coastal::core::SurrogateModel> fresh_model(const World& w);

/// Digest of every parameter's bytes, in registration order.
uint64_t weights_digest(const coastal::core::SurrogateModel& model);
/// Digest of a frame sequence's field bytes (the test archive's digest,
/// and the oracle's bitwise comparisons).
uint64_t frames_digest(const std::vector<coastal::data::CenterFields>& f);

bool all_finite(const std::vector<coastal::data::CenterFields>& frames);
bool same_bits(const std::vector<coastal::data::CenterFields>& a,
               const std::vector<coastal::data::CenterFields>& b);

/// ζ RMSE in cm over wet cells between `pred` and `truth` (both
/// denormalized, same length).
struct ZetaError {
  double sum_sq = 0.0;
  uint64_t n = 0;
  void add(const coastal::ocean::Grid& grid,
           const coastal::data::CenterFields& pred,
           const coastal::data::CenterFields& truth);
  double rmse_cm() const;
};

/// A window of e*T+1 normalized test frames starting at `start`.
std::vector<coastal::data::CenterFields> test_window(const World& w,
                                                     size_t start,
                                                     int episodes);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = -1;  ///< sample count behind a percentile, -1 if none
};

/// What one workload run reports.
struct Result {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  ///< oracle failures, for stderr

  void add(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1) {
    metrics.push_back({name, value, unit, samples});
  }
  void fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

/// Nearest-rank percentile of `v` (q in [0, 1]); +inf entries count as
/// misses.  Returns 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// ---------------------------------------------------------------------------
// The benchmark's own spans (traced runs only)
// ---------------------------------------------------------------------------

/// Spans recorded around calls into the library, kept in memory and
/// written at exit in the obs::TraceRecorder::dump_json() shape, so
/// tools/trace_view.py renders them.  Parents are explicit (not inferred
/// from time containment), which is what self time needs.
class Spans {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;       ///< index into spans_, -1 for a root
    uint64_t request;  ///< trace id shared by one request's spans
    int64_t extra;    ///< batch size, where one applies
  };

  explicit Spans(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  /// Open a span; returns its index (or -1 when disabled).  A child
  /// joins its parent's request; a root starts a new one.
  int open(const char* name, int parent = -1, int64_t extra = 0);
  void close(int id);
  /// Record a span whose interval is already known.  `request` 0 means
  /// "as open() would choose"; pass new_request() to give a child its
  /// own trace (one served request under a load phase).
  int add(const char* name, Clock::time_point t0, Clock::time_point t1,
          int parent = -1, int64_t extra = 0, uint64_t request = 0);
  uint64_t new_request() { return ++next_request_; }

  /// Per-name totals: wall (sum of durations) and self time (duration
  /// minus the part covered by direct children), in ms, with counts.
  struct Totals {
    std::string name;
    int64_t count = 0;
    double wall_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<Totals> totals() const;
  /// Mean duration in ms of spans named `name` (and, when extra >= 0,
  /// with that extra), 0 when there are none.
  double mean_ms(const char* name, int64_t extra = -1) const;

  std::string dump_json() const;

 private:
  static int64_t now_ns();
  uint64_t request_for(int parent, uint64_t request);
  bool enabled_;
  uint64_t next_request_ = 0;
  std::vector<Span> spans_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Spans& s, const char* name, int parent = -1, int64_t extra = 0)
      : spans_(s), id_(s.open(name, parent, extra)) {}
  ~SpanScope() { spans_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

// ---------------------------------------------------------------------------
// Run context and workloads
// ---------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool self_test = false;
  int setups = 3;
  std::string work_dir;
  std::string spans_path;
};

/// Peak resident set (VmHWM) in MB.
double peak_rss_mb();

/// Samples the resident set every 50 ms between start() and stop(); the
/// median of those samples is the benchmark's memory metric — the
/// high-water mark moves with allocator arena timing under concurrent
/// load, the median does not.
class RssSampler {
 public:
  RssSampler() = default;
  ~RssSampler() { stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void start();
  /// Stops sampling (idempotent) and returns the median in MB.
  double stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> samples_mb_;
  std::thread thread_;
};

/// Each workload runs its timed phases on a built world and fills
/// `out`.  With `spans` enabled (traced run) it records its own spans and
/// the obs knobs are on; the untraced run passes a disabled recorder.
void run_hindcast(World& w, const RunOptions& opt, Spans& spans, Result& out);
void run_serve(World& w, const RunOptions& opt, bool live, Spans& spans,
               Result& out);

/// One verified 12-day forecast (192 episodes at threshold 1e-4) starting
/// `offset` frames into the test archive.
coastal::core::WorkflowResult hindcast(World& w, size_t offset);

/// Closed-loop serve probe for workloads without a server: each of the
/// first 50 `starts` windows is submitted twice, one request at a time
/// (the repeat is a cache hit), and the serve/cache metrics are taken
/// from that.
void run_serve_probe(World& w, const std::vector<size_t>& starts, Spans& spans,
                     Result& out);

/// The traced run's layer walk: 200 seeded test windows replayed serially
/// through pack -> forward -> decode -> verify at B in {1, 2, 4, 8}, and
/// at B = 1 through forecast_episode and the numerical fallback; ocean
/// steps; 100 training steps on a scratch model.  Fills the core, data,
/// ocean, tensor and nn per-layer metrics, plus the serve and workflow
/// ones a workload does not produce itself.
void run_layer_walk(World& w, const RunOptions& opt, Spans& spans,
                    Result& out);

}  // namespace bench
