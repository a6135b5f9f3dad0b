/// bench_e2e: one workload of the end-to-end benchmark in one process.
///
///   bench_e2e --workload W --seed N --seconds S --work DIR
///             [--trace 0|1] [--setups K] [--spans PATH] [--self-test]
///
/// Prints every metric as `name value unit [n=samples]`, then one line
/// `RESULT {json}` that bench/e2e/run.py turns into the benchmark's
/// result.  Exits 1 when an output check fails, 2 on bad arguments.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "tensor/kernels.hpp"

namespace co = coastal;
using namespace bench;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "hindcast_12d|serve_unique|serve_live --seed N "
               "--seconds S --work DIR [--trace 0|1] [--setups K] "
               "[--spans PATH] [--self-test]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(value().c_str());
    else if (a == "--trace") opt.traced = value() == "1";
    else if (a == "--setups") opt.setups = std::atoi(value().c_str());
    else if (a == "--work") opt.work_dir = value();
    else if (a == "--spans") opt.spans_path = value();
    else if (a == "--self-test") opt.self_test = true;
    else return usage(("unknown argument " + a).c_str());
  }
  const bool known = opt.workload == "hindcast_12d" ||
                     opt.workload == "serve_unique" ||
                     opt.workload == "serve_live";
  if (!known) return usage("unknown workload");
  if (opt.work_dir.empty()) return usage("--work is required");
  if (!(opt.seconds > 0) || opt.setups < 1) return usage("bad --seconds/--setups");

  // Kernels run on one thread.  On a few cores shared with other
  // processes the default (one per core) is slower and swings with the
  // neighbours' load: with 1, 2 and 4 threads taking turns for 10
  // minutes, a training epoch's interquartile range was 16%, 49% and 46%
  // of its median, and 1 thread was also the fastest.
  co::tensor::kernels::config().num_threads = 1;

  // Set-up, timed: the world is built and the served surrogate trained.
  // The world is built again after the workload, `setups` builds in all,
  // and the median build is reported, so the set-up time samples the host
  // at both ends of the run; every build must come out identical.  Each
  // step is timed at reference speed (see CoreSpeed) and as measured.
  Result res;
  const int setups = opt.traced ? 1 : opt.setups;
  std::vector<double> world_ms, wall_world_ms;
  uint64_t archive = 0;
  auto build_world = [&](const CoreSpeed& core) {
    std::unique_ptr<World> w;
    const UnitTime t = time_unit(core, [&] { w = make_world(opt.work_dir); });
    world_ms.push_back(t.ref_ms);
    wall_world_ms.push_back(t.wall_ms);
    const uint64_t d = frames_digest(w->test_fields);
    if (world_ms.size() > 1 && d != archive) res.fail("set-up is not deterministic");
    archive = d;
    return w;
  };
  std::unique_ptr<World> world;
  UnitTime train{};
  double slowdown = 1.0;
  {
    const CoreSpeed core;
    world = build_world(core);
    train = time_unit(core, [&] { train_world_model(*world); });
    slowdown = core.median_slowdown();
  }
  const uint64_t weights = weights_digest(*world->model);
  // The set-up's peak resident set: the archives, the datasets, the model
  // and its training.  What the workloads add on top depends on how
  // requests happened to overlap (the tensor pool keeps every 8 MB arena
  // chunk it has handed out), so it is printed (rss_mb, peak_rss_mb) but
  // not gated.
  const double setup_rss_mb = peak_rss_mb();

  Spans spans(opt.traced);
  try {
    if (opt.workload == "hindcast_12d") run_hindcast(*world, opt, spans, res);
    else run_serve(*world, opt, opt.workload == "serve_live", spans, res);
    if (opt.traced) run_layer_walk(*world, opt, spans, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  if (static_cast<int>(world_ms.size()) < setups) {
    const CoreSpeed core;
    while (static_cast<int>(world_ms.size()) < setups) {
      world.reset();
      world = build_world(core);
    }
  }
  if (!opt.traced) {
    // The share of attempted units that completed and passed their
    // checks: 1 when nothing failed, so it is never 0 and its bound
    // gates the failure rate.
    res.add("success_frac",
            1.0 - static_cast<double>(res.failed) /
                      static_cast<double>(std::max<int64_t>(1, res.attempted)),
            "ratio", res.attempted);
    const auto builds = static_cast<int64_t>(world_ms.size());
    res.add("setup_s", (median(world_ms) + train.ref_ms) * 1e-3, "s", builds);
    res.add("wall.setup_s", (median(wall_world_ms) + train.wall_ms) * 1e-3,
            "s", builds);
    res.add("setup_rss_mb", setup_rss_mb, "MB");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  res.add("host.slowdown", slowdown, "ratio");

  if (opt.traced) {
    // Per-layer self time (span minus the part its children cover).
    std::printf("# self time by span (count, wall ms, self ms)\n");
    for (const auto& t : spans.totals()) {
      std::printf("# %-22s %8lld %12.3f %12.3f\n", t.name.c_str(),
                  static_cast<long long>(t.count), t.wall_ms, t.self_ms);
    }
    if (!opt.spans_path.empty()) {
      std::ofstream(opt.spans_path) << spans.dump_json();
    }
  }
  for (const Metric& m : res.metrics) {
    std::printf("%s %s %s", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
    if (m.samples >= 0) std::printf(" n=%lld", static_cast<long long>(m.samples));
    std::printf("\n");
  }
  for (const auto& note : res.notes) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", note.c_str());
  }

  std::string j = "{\"correct\": ";
  j += res.correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(res.attempted);
  j += ", \"failed\": " + std::to_string(res.failed);
  j += ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    if (i) j += ", ";
    j += "\"" + m.name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
         m.unit + "\"";
    if (m.samples >= 0) j += ", \"samples\": " + std::to_string(m.samples);
    j += "}";
  }
  j += "}, \"fingerprint\": {";
  j += "\"kernel_threads\": " +
       std::to_string(co::tensor::kernels::resolved_threads());
  j += ", \"hardware_threads\": " +
       std::to_string(std::thread::hardware_concurrency());
  j += ", \"compiler\": \"" + json_escape(BENCH_COMPILER) + "\"";
  j += ", \"library_flags\": \"" + json_escape(BENCH_LIB_FLAGS) + "\"";
  j += ", \"weights_digest\": \"" + hex(weights) + "\"";
  j += ", \"archive_digest\": \"" + hex(archive) + "\"";
  j += "}, \"notes\": [";
  for (size_t i = 0; i < res.notes.size(); ++i) {
    if (i) j += ", ";
    j += "\"" + json_escape(res.notes[i]) + "\"";
  }
  j += "]}";
  std::printf("RESULT %s\n", j.c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
