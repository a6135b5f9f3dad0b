#include "obs/profile.hpp"

#include "util/env.hpp"

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

const char* move_name(Move m) {
  switch (m) {
    case Move::kPermute:
      return "permute";
    case Move::kWindow:
      return "window";
    case Move::kReshape:
      return "reshape";
    case Move::kSlice:
      return "slice";
    case Move::kConcat:
      return "concat";
    case Move::kCount:
      break;
  }
  return "unknown";
}

bool profile_from_env(bool base) {
  return util::env_flag("COASTAL_PROFILE").value_or(base);
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
  for (size_t i = 0; i < kMoves; ++i) {
    const int64_t n = moves_[i].value();
    if (n == 0) continue;
    const char* op = move_name(static_cast<Move>(i));
    out.counters.push_back({"coastal_data_moves_total",
                            "Data-movement op calls", "op", op, n});
    out.counters.push_back({"coastal_data_move_bytes_total",
                            "Bytes moved by data-movement ops", "op", op,
                            move_bytes_[i].value()});
  }
}

void StageProfiler::reset() {
  for (auto& h : hists_) h->reset();
}

}  // namespace coastal::obs
