#pragma once

/// \file normalization.hpp
/// Per-variable z-score normalization, fitted on the training year only
/// (the paper normalizes with 2011 statistics and applies them to 2012).

#include <array>
#include <span>
#include <string>
#include <vector>

#include "data/center_fields.hpp"
#include "util/stats.hpp"

namespace coastal::data {

class Normalizer;

/// Value-returning frame conversions — the episode-chaining idiom shared
/// by rollout, the workflow and the serving layer: a prediction is
/// denormalized for verification/output, and renormalized when it seeds
/// the next episode's initial condition.
CenterFields normalized_copy(const CenterFields& denormalized,
                             const Normalizer& norm);
CenterFields denormalized_copy(const CenterFields& normalized,
                               const Normalizer& norm);

/// Variable order used throughout the pipeline.
enum Variable : int { kU = 0, kV = 1, kW = 2, kZeta = 3 };
inline const char* variable_name(int v) {
  constexpr const char* names[] = {"u", "v", "w", "zeta"};
  return names[v];
}
constexpr int kNumVariables = 4;

class Normalizer {
 public:
  /// Accumulate statistics from snapshots (call repeatedly, then freeze).
  void accumulate(const CenterFields& f);
  void freeze();
  bool frozen() const { return frozen_; }

  double mean(int var) const { return mean_[static_cast<size_t>(var)]; }
  double stddev(int var) const { return std_[static_cast<size_t>(var)]; }

  float normalize_value(int var, float x) const {
    return static_cast<float>((x - mean_[static_cast<size_t>(var)]) /
                              std_[static_cast<size_t>(var)]);
  }
  float denormalize_value(int var, float x) const {
    return static_cast<float>(x * std_[static_cast<size_t>(var)] +
                              mean_[static_cast<size_t>(var)]);
  }
  void normalize(std::span<float> xs, int var) const;
  void denormalize(std::span<float> xs, int var) const;

  /// Normalize all four fields of a snapshot in place.
  void normalize_fields(CenterFields& f) const;

 private:
  std::array<util::RunningStats, kNumVariables> stats_;
  std::array<double, kNumVariables> mean_{};
  std::array<double, kNumVariables> std_{};
  bool frozen_ = false;
};

}  // namespace coastal::data
