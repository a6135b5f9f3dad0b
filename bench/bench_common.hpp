#pragma once

/// \file bench_common.hpp
/// Shared miniature-world construction for the benchmark harnesses.
///
/// Every bench reproduces one table or figure of the paper at miniature
/// scale (the substitutions are documented in DESIGN.md) and, where the
/// paper's absolute numbers depend on the DGX testbed, prints the
/// PerfModel projection alongside the measured miniature value.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/surrogate.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "ocean/archive.hpp"
#include "ocean/bathymetry.hpp"
#include "tensor/kernels.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace coastal::bench {

struct MiniWorld {
  ocean::Grid grid{20, 20, 6, 400.0, 400.0};
  ocean::TidalForcing tides = ocean::TidalForcing::gulf_coast_default();
  ocean::PhysicsParams params;

  /// Training archive ("year A") and a disjoint, later test archive
  /// ("year B"), mirroring the paper's 2011-train / 2012-test split.
  std::vector<data::CenterFields> train_fields;
  std::vector<data::CenterFields> test_fields;
  std::vector<data::CenterFields> test_fields_norm;
  double test_t0 = 0.0;

  data::Dataset train_set;
  data::Dataset test_set;

  std::unique_ptr<core::SurrogateModel> model;  ///< trained fine model
};

inline std::string bench_dir(const std::string& name) {
  auto p = std::filesystem::temp_directory_path() / ("coastal_bench_" + name);
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

/// Output directory for the CSV artifacts (checked into the working tree
/// so plots can be regenerated).
inline std::string results_dir() {
  std::filesystem::create_directories("bench_results");
  return "bench_results";
}

/// Build grid + archives + datasets; optionally train the fine model.
inline MiniWorld make_mini_world(const std::string& name,
                                 bool train_model = true,
                                 int train_hours = 30, int test_hours = 14,
                                 int T = 3, int train_epochs = 8) {
  util::set_log_level(util::LogLevel::kWarn);
  MiniWorld w;
  w.params.dt = 10.0;
  ocean::generate_estuary(w.grid, ocean::EstuaryParams{}, 42);

  ocean::ArchiveConfig train_cfg;
  train_cfg.spinup_seconds = 2 * 3600.0;
  train_cfg.duration_seconds = train_hours * 3600.0;
  train_cfg.interval_seconds = 1800.0;
  auto train_snaps =
      ocean::simulate_archive(w.grid, w.tides, w.params, train_cfg);
  w.train_fields = data::center_archive(w.grid, train_snaps);

  // Test "year": continue the same ocean further in time by extending the
  // spinup past the training span.
  ocean::ArchiveConfig test_cfg;
  test_cfg.spinup_seconds = train_cfg.spinup_seconds +
                            train_cfg.duration_seconds + 3600.0;
  test_cfg.duration_seconds = test_hours * 3600.0;
  test_cfg.interval_seconds = 1800.0;
  auto test_snaps = ocean::simulate_archive(w.grid, w.tides, w.params, test_cfg);
  w.test_t0 = test_snaps.front().time;
  w.test_fields = data::center_archive(w.grid, test_snaps);

  data::DatasetConfig dcfg;
  dcfg.T = T;
  dcfg.stride = 1;
  dcfg.multiple_hw = 4;
  dcfg.multiple_d = 2;
  dcfg.dir = bench_dir(name + "_train");
  w.train_set = data::build_dataset(w.train_fields, dcfg);

  dcfg.dir = bench_dir(name + "_test");
  dcfg.stride = T;  // non-overlapping test windows, as the paper uses
  w.test_set = data::build_dataset(w.test_fields, dcfg,
                                   &w.train_set.normalizer, 0.0);
  // All test windows are "train_indices" of the test set (val_fraction 0).
  w.test_fields_norm = w.test_fields;
  for (auto& f : w.test_fields_norm)
    w.train_set.normalizer.normalize_fields(f);

  core::SurrogateConfig mcfg;
  mcfg.H = w.train_set.spec.H;
  mcfg.W = w.train_set.spec.W;
  mcfg.D = w.train_set.spec.D;
  mcfg.T = w.train_set.spec.T;
  mcfg.patch_h = 5;
  mcfg.patch_w = 5;
  mcfg.patch_d = 2;
  mcfg.embed_dim = 8;
  mcfg.stages = 3;
  mcfg.heads = {2, 4, 8};
  util::Rng rng(7);
  w.model = std::make_unique<core::SurrogateModel>(mcfg, rng);

  if (train_model) {
    core::TrainConfig tcfg;
    tcfg.epochs = train_epochs;
    tcfg.lr = 2e-3f;
    tcfg.loader.num_workers = 1;
    core::train(*w.model, w.train_set, tcfg);
  }
  return w;
}

/// The host and build a benchmark file was recorded on: CPU model, logical
/// cores, the kernel threads the run resolved to, compiler and flags.
/// `tools/bench_diff.py` compares rows in absolute terms only between files
/// with equal fingerprints, and as host-normalized ratios otherwise.
inline std::vector<std::pair<std::string, std::string>> host_fingerprint() {
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
      const std::string l(line);
      if (l.rfind("model name", 0) != 0) continue;
      const size_t colon = l.find(':');
      if (colon != std::string::npos) {
        cpu = l.substr(l.find_first_not_of(' ', colon + 1));
        cpu.erase(cpu.find_last_not_of(" \n") + 1);
      }
      break;
    }
    std::fclose(f);
  }
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string flags;
#ifdef NDEBUG
  flags += " NDEBUG";
#endif
#ifdef COASTAL_MARCH_NATIVE
  flags += " COASTAL_MARCH_NATIVE";
#endif
#ifdef __SANITIZE_ADDRESS__
  flags += " sanitize=address";
#endif
#ifdef __SANITIZE_THREAD__
  flags += " sanitize=thread";
#endif
  if (!flags.empty()) flags.erase(0, 1);
  return {{"cpu", cpu},
          {"logical_cores",
           std::to_string(std::thread::hardware_concurrency())},
          {"kernel_threads",
           std::to_string(tensor::kernels::resolved_threads())},
          {"compiler", compiler},
          {"flags", flags}};
}

/// Machine-readable benchmark records: one JSON object per measured
/// (op, size) pair.  Seeds the perf trajectory — each PR can diff its
/// BENCH_*.json against the previous one.
class BenchJsonWriter {
 public:
  /// `ran_inline`: the row made no thread-pool dispatch, so its time does
  /// not depend on the host's core count.
  void add(const std::string& op, int64_t size, double ns_per_iter,
           double items_per_second, bool ran_inline) {
    records_.push_back({op, size, ns_per_iter, items_per_second, ran_inline});
  }

  bool empty() const { return records_.empty(); }

  /// Writes {"fingerprint": {...host_fingerprint()}, "records": [...]},
  /// each record {op, size, ns_per_iter, items_per_second, inline}.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\n  \"fingerprint\": {");
    const auto fingerprint = host_fingerprint();
    for (size_t i = 0; i < fingerprint.size(); ++i) {
      std::string value;
      for (char c : fingerprint[i].second) {
        if (c == '"' || c == '\\') value += '\\';
        value += c;
      }
      std::fprintf(f, "%s\"%s\": \"%s\"", i ? ", " : "",
                   fingerprint[i].first.c_str(), value.c_str());
    }
    std::fprintf(f, "},\n  \"records\": [\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "    {\"op\": \"%s\", \"size\": %lld, \"ns_per_iter\": %.1f, "
                   "\"items_per_second\": %.3e, \"inline\": %s}%s\n",
                   r.op.c_str(), static_cast<long long>(r.size),
                   r.ns_per_iter, r.items_per_second,
                   r.ran_inline ? "true" : "false",
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Record {
    std::string op;
    int64_t size;
    double ns_per_iter;
    double items_per_second;
    bool ran_inline;
  };
  std::vector<Record> records_;
};

inline void print_header(const char* what) {
  std::printf("\n=== %s ===\n", what);
  std::printf(
      "(miniature reproduction; paper-scale columns are PerfModel "
      "projections — see DESIGN.md)\n\n");
}

}  // namespace coastal::bench
