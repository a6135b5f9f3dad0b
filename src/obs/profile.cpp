#include "obs/profile.hpp"

#include <cstdlib>
#include <cstring>

namespace coastal::obs {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kQueue:
      return "queue";
    case Stage::kPack:
      return "pack";
    case Stage::kCacheProbe:
      return "cache_probe";
    case Stage::kForward:
      return "forward";
    case Stage::kGemm:
      return "gemm";
    case Stage::kAttention:
      return "attention";
    case Stage::kVerify:
      return "verify";
    case Stage::kFallback:
      return "fallback";
    case Stage::kDecode:
      return "decode";
    case Stage::kCount:
      break;
  }
  return "unknown";
}

bool profile_from_env(bool base) {
  if (const char* v = std::getenv("COASTAL_PROFILE"); v && *v) {
    return std::strcmp(v, "0") != 0;
  }
  return base;
}

StageProfiler& StageProfiler::instance() {
  static StageProfiler* p = new StageProfiler();  // immortal
  return *p;
}

StageProfiler::StageProfiler() {
  for (auto& h : hists_) {
    h = std::make_unique<Histogram>(HistogramSpec::latency_us());
  }
}

void StageProfiler::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void StageProfiler::collect(RegistrySnapshot& out) const {
  for (int i = 0; i < static_cast<int>(Stage::kCount); ++i) {
    HistogramSnapshot h = hists_[static_cast<size_t>(i)]->snapshot();
    if (h.total == 0) continue;  // keep the exposition compact
    h.name = "coastal_stage_duration_us";
    h.help = "Scoped stage wall time in microseconds";
    h.label_key = "stage";
    h.label_value = stage_name(static_cast<Stage>(i));
    out.histograms.push_back(std::move(h));
  }
}

void StageProfiler::reset() {
  for (auto& h : hists_) h->reset();
}

}  // namespace coastal::obs
