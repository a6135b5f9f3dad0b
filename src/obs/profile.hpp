#pragma once

/// \file profile.hpp
/// Scoped stage profiler: RAII timers on the named stages of the
/// serving pipeline (queue wait, sample packing, GEMM, attention,
/// verification, cache probe, ...) feeding geometric registry
/// histograms — so a bench_diff-style regression can be localized to
/// *which stage* moved, not just which benchmark.
///
/// The profiler is a process-wide singleton because its instrumentation
/// points live in layers that know nothing about servers (tensor
/// kernels, the rollout).  When disabled, an instrumented scope costs
/// one relaxed atomic load; when enabled, two steady_clock reads plus
/// one sharded histogram observe.  ForecastServer construction
/// applies ServerConfig::obs.profile_stages (overridable via the
/// COASTAL_PROFILE environment variable); stage histograms are exported
/// into the server's registry snapshot as
/// coastal_stage_duration_us{stage="..."}.

#include <array>
#include <atomic>
#include <chrono>
#include <memory>

#include "obs/registry.hpp"

namespace coastal::obs {

enum class Stage : int {
  kQueue = 0,   ///< submit -> batch assembly, per request
  kPack,        ///< sample construction / batched-input packing
  kCacheProbe,  ///< forecast-cache probe of a batch's uniques
  kForward,     ///< surrogate forward (retry loop included)
  kGemm,        ///< tensor::kernels::gemm / gemm_batched
  kAttention,   ///< fused attention forward / backward
  kVerify,      ///< physics verification of one entry
  kFallback,    ///< numerical-model episode (degraded / salvage)
  kDecode,      ///< prediction decode to CenterFields
  kCount
};

const char* stage_name(Stage s);

/// Apply the COASTAL_PROFILE environment override ("0" disables,
/// anything else enables) on top of `base`.
bool profile_from_env(bool base);

class StageProfiler {
 public:
  static StageProfiler& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Last writer wins process-wide (documented in docs/observability.md:
  /// with several servers the most recently constructed one decides).
  void set_enabled(bool on);

  void record(Stage s, double us) {
    hists_[static_cast<size_t>(s)]->observe(us);
  }
  HistogramSnapshot snapshot(Stage s) const {
    return hists_[static_cast<size_t>(s)]->snapshot();
  }
  /// Append every non-empty stage histogram to `out` as
  /// coastal_stage_duration_us{stage="..."} — the registry-collector
  /// hook ForecastServer installs.
  void collect(RegistrySnapshot& out) const;
  void reset();

 private:
  StageProfiler();

  std::atomic<bool> enabled_{false};
  std::array<std::unique_ptr<Histogram>, static_cast<size_t>(Stage::kCount)>
      hists_;
};

/// RAII stage timer.  Construct with the profiler possibly disabled —
/// the check is one relaxed load and the clock is only read when armed.
class ScopedStage {
 public:
  explicit ScopedStage(Stage s)
      : stage_(s), armed_(StageProfiler::instance().enabled()) {
    if (armed_) t0_ = std::chrono::steady_clock::now();
  }
  ~ScopedStage() {
    if (!armed_) return;
    const auto dt = std::chrono::steady_clock::now() - t0_;
    StageProfiler::instance().record(
        stage_,
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count()) *
            1e-3);
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  Stage stage_;
  bool armed_;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace coastal::obs
