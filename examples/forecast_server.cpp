/// Example: the forecast *service* — concurrent clients submitting
/// episode requests to a ForecastServer that micro-batches compatible
/// episodes through one surrogate, collapses identical in-flight
/// requests, verifies every result against water-mass conservation, and
/// falls back to the numerical model when the physics check fails.
///
/// Replays a synthetic request trace shaped like public-forecast traffic:
/// several client threads, each repeatedly requesting the current
/// forecast window with jittered arrival times, with heavy duplication
/// across clients.  Prints the ServerStats dashboard and a serial
/// baseline comparison.
///
/// Chaos mode: pass `--faults <schedule>` (or set COASTAL_FAULTS) to
/// inject deterministic faults into the serving path, e.g.
///
///   forecast_server --faults 'rollout.step:nan@1x4;serve.worker:hang@1x1'
///
/// which arms the retry/watchdog/breaker machinery and extends the
/// dashboard with the registry's reliability and fault-site metrics.
///
/// Observability: `--metrics <path>` writes the full Prometheus text
/// exposition (server + cache + reliability + fault sites + stage
/// profile) on exit; `--trace <path>` enables per-request tracing and
/// writes the JSON span trees (render with tools/trace_view.py).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>

#include "core/rollout.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "obs/trace.hpp"
#include "ocean/archive.hpp"
#include "ocean/bathymetry.hpp"
#include "serve/server.hpp"
#include "tensor/storage.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

using namespace coastal;

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);

  std::string fault_schedule;
  std::string metrics_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      fault_schedule = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--faults <schedule>] [--metrics <path>] "
                   "[--trace <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!fault_schedule.empty()) {
    util::FaultInjector::instance().install(fault_schedule);
    std::printf("fault schedule armed: %s\n", fault_schedule.c_str());
  }

  // --- world + data --------------------------------------------------------
  ocean::Grid grid(20, 20, 6, 400.0, 400.0);
  ocean::generate_estuary(grid, ocean::EstuaryParams{}, 42);
  auto tides = ocean::TidalForcing::gulf_coast_default();
  ocean::PhysicsParams params;
  params.dt = 10.0;

  ocean::ArchiveConfig acfg;
  acfg.spinup_seconds = 2 * 3600.0;
  acfg.duration_seconds = 30 * 3600.0;
  acfg.interval_seconds = 1800.0;
  auto snaps = ocean::simulate_archive(grid, tides, params, acfg);
  auto fields = data::center_archive(grid, snaps);

  data::DatasetConfig dcfg;
  dcfg.T = 3;
  dcfg.stride = 1;
  dcfg.dir = "/tmp/coastal_server_example";
  auto dataset = data::build_dataset(fields, dcfg);

  core::SurrogateConfig mcfg;
  mcfg.H = dataset.spec.H;
  mcfg.W = dataset.spec.W;
  mcfg.D = dataset.spec.D;
  mcfg.T = dataset.spec.T;
  mcfg.patch_h = 5;
  mcfg.patch_w = 5;
  mcfg.patch_d = 2;
  mcfg.embed_dim = 8;
  mcfg.stages = 3;
  mcfg.heads = {2, 4, 8};
  util::Rng rng(7);
  core::SurrogateModel model(mcfg, rng);
  core::TrainConfig tcfg;
  tcfg.epochs = 4;
  tcfg.lr = 2e-3f;
  std::printf("training the surrogate (%d epochs)...\n", tcfg.epochs);
  core::train(model, dataset, tcfg);

  std::vector<data::CenterFields> norm_fields = fields;
  for (auto& f : norm_fields) dataset.normalizer.normalize_fields(f);

  // --- the request trace ---------------------------------------------------
  // 4 clients x 8 requests, every request drawn from 4 "current" episode
  // windows (heavy duplication, as when many users ask for the live
  // forecast), arrivals jittered by a few ms.
  constexpr int kClients = 4, kPerClient = 8, kWindows = 4;
  auto window_of = [&](int widx) {
    std::vector<data::CenterFields> w(
        norm_fields.begin() + widx,
        norm_fields.begin() + widx + dataset.spec.T + 1);
    return w;
  };

  // --- serial baseline: the identical 32 episodes, one at a time, with
  // the same verification + fallback the server applies -------------------
  util::Timer serial_timer;
  {
    tensor::NoGradGuard ng;
    model.set_training(false);
    core::MassVerifier verifier(grid, 8e-5);
    const core::NumericalFallback fallback{grid, tides, params};
    for (int i = 0; i < kClients * kPerClient; ++i) {
      tensor::ArenaScope arena;
      auto win = window_of((i / kClients) % kWindows);
      auto frames = core::forecast_episode(model, dataset.spec,
                                           dataset.normalizer, win, nullptr);
      const auto current =
          data::denormalized_copy(win.front(), dataset.normalizer);
      core::verify_or_fallback(frames, current, verifier, &fallback,
                               current.time, acfg.interval_seconds);
    }
  }
  const double serial_s = serial_timer.seconds();

  // --- the server ----------------------------------------------------------
  serve::ServerConfig scfg;
  scfg.workers = 1;
  scfg.queue_capacity = 32;
  scfg.batch.max_batch = 8;
  scfg.batch.max_wait_us = 4000;
  scfg.threshold = 8e-5;
  scfg.snapshot_dt = acfg.interval_seconds;
  scfg.fallback = serve::FallbackContext{tides, params};
  if (!trace_path.empty()) {
    // Trace every request: the run is small, so sampling would just
    // leave holes in the dumped span trees.
    scfg.obs.trace.enabled = true;
    scfg.obs.trace.sample_rate = 1.0;
  }
  if (!fault_schedule.empty()) {
    // Chaos runs arm the full reliability stack: a second worker so a
    // hang doesn't serialize everything, retries for transient throws,
    // and the watchdog to retire parked workers.
    scfg.workers = 2;
    scfg.reliability.retry.max_attempts = 4;
    scfg.reliability.retry.backoff_us = 500;
    scfg.reliability.watchdog.hang_timeout_ms = 2000;
    scfg.reliability.watchdog.poll_ms = 50;
  }
  serve::ForecastServer server({{&model, dataset.spec}}, dataset.normalizer,
                               &grid, scfg);

  // Open-loop clients: every client asks for the *current* forecast
  // window (it advances each round), submissions jittered by a few
  // hundred µs — the duplication-heavy shape of public traffic.
  util::Timer served_timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 jitter(static_cast<unsigned>(c));
      std::uniform_int_distribution<int> wait_us(0, 500);
      std::vector<std::future<serve::ForecastResult>> mine;
      for (int i = 0; i < kPerClient; ++i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(wait_us(jitter)));
        serve::ForecastRequest req;
        req.window = window_of(i % kWindows);
        auto f = server.submit(std::move(req));
        if (f) mine.push_back(std::move(*f));
      }
      for (auto& f : mine) {
        try {
          f.get();
        } catch (const serve::ForecastError& e) {
          // Typed serving failures (worker lost, deadline, ...) are an
          // expected outcome of a chaos run; the dashboard counts them.
          std::fprintf(stderr, "client %d: request failed: %s\n", c,
                       e.what());
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double served_s = served_timer.seconds();
  const auto stats = server.stats();
  // Capture the exposition while the server is live so queue-depth and
  // breaker gauges reflect the run, not the drained post-shutdown state.
  const std::string exposition = server.metrics_text();
  server.shutdown();

  // --- dashboard -----------------------------------------------------------
  std::printf("\n== forecast_server: %d clients x %d requests ==\n", kClients,
              kPerClient);
  std::printf("%-28s %10llu\n", "served",
              static_cast<unsigned long long>(stats.served));
  std::printf("%-28s %10llu\n", "coalesced (shared entries)",
              static_cast<unsigned long long>(stats.coalesced));
  std::printf("%-28s %10llu\n", "batches",
              static_cast<unsigned long long>(stats.batches));
  std::printf("%-28s %10.2f\n", "mean requests/forward", stats.mean_batch);
  std::printf("%-28s %10.1f\n", "p50 latency [ms]", stats.p50_ms);
  std::printf("%-28s %10.1f\n", "p95 latency [ms]", stats.p95_ms);
  std::printf("%-28s %10.1f\n", "p99 latency [ms]", stats.p99_ms);
  std::printf("%-28s %10.1f\n", "throughput [req/s]", stats.throughput_rps);
  std::printf("%-28s %10.3f\n", "fallback rate", stats.fallback_rate());
  std::printf("distinct-episodes-per-forward histogram:");
  for (int i = 0; i < serve::ServerStatsSnapshot::kBatchHistBuckets; ++i) {
    if (stats.batch_hist[static_cast<size_t>(i)]) {
      std::printf("  %dx:%llu", i + 1,
                  static_cast<unsigned long long>(
                      stats.batch_hist[static_cast<size_t>(i)]));
    }
  }
  std::printf("\n");
  if (!fault_schedule.empty()) {
    // The reliability story — failed/retries/degraded/worker-lost
    // counters, breaker state, and per-site fault stats — now lives in
    // the metrics registry; print the exposition instead of a bespoke
    // dashboard.  Cumulative fault-site stats survive clear().
    std::printf("\n-- metrics exposition (reliability run) --\n%s",
                exposition.c_str());
    util::FaultInjector::instance().clear();
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << exposition;
    std::printf("metrics exposition written to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    out << obs::TraceRecorder::instance().dump_json();
    std::printf("trace span trees written to %s (render with "
                "tools/trace_view.py)\n",
                trace_path.c_str());
  }
  std::printf("\nserial one-at-a-time: %.2f s   served: %.2f s   (%.2fx)\n",
              serial_s, served_s, serial_s / served_s);
  std::printf("micro-batching + identical-request collapse turn the Fig. 1 "
              "workflow into a service: same bitwise results, a fraction of "
              "the compute.\n");
  return 0;
}
