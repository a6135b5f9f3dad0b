#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/rollout.hpp"
#include "core/workflow.hpp"
#include "obs/profile.hpp"
#include "serve/server.hpp"
#include "tensor/storage.hpp"
#include "util/rng.hpp"

namespace bench {

namespace co = coastal;
using co::data::CenterFields;
using co::serve::ForecastResult;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Every 25th served result is replayed serially by the oracle.
constexpr uint64_t kOracleStride = 25;
/// The hindcast's verification threshold: tight enough that the ROMS
/// fallback recomputes roughly a third of the episodes.
constexpr double kHindcastThreshold = 1.0e-4;
constexpr int kHindcastEpisodes = 192;  // 12 days of 3 x 30 min episodes
constexpr size_t kHindcastMaxOffset = 96;

/// Element i of a seeded Weyl sequence over [0, n): any prefix covers the
/// range evenly, so per-run means do not hang on a lucky draw.
size_t weyl(uint64_t seed, int64_t i, size_t n) {
  const double u = co::util::Rng(seed).uniform() +
                   0.6180339887498949 * static_cast<double>(i);
  return static_cast<size_t>((u - std::floor(u)) * static_cast<double>(n));
}

// ---------------------------------------------------------------------------
// Allocation and profiler accounting over one timed pass
// ---------------------------------------------------------------------------

struct TensorCounters {
  co::tensor::AllocStats start{};
  void begin() {
    co::tensor::reset_peak_bytes();
    start = co::tensor::alloc_stats();
  }
  void report(Result& out, int64_t units) const {
    const auto now = co::tensor::alloc_stats();
    const double allocs =
        static_cast<double>(now.total_allocs - start.total_allocs);
    const double hits = static_cast<double>(now.pool_hits - start.pool_hits);
    const double misses =
        static_cast<double>(now.pool_misses - start.pool_misses);
    out.add("tensor.heap_allocs_per_request",
            allocs / static_cast<double>(std::max<int64_t>(1, units)),
            "count");
    out.add("tensor.peak_mb", static_cast<double>(now.peak_bytes) / 1048576.0,
            "MB");
    out.add("tensor.pool_hit_rate",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  }
};

// ---------------------------------------------------------------------------
// Open-loop serving
// ---------------------------------------------------------------------------

/// How to rebuild one request's window, so the oracle can replay it.
struct Meta {
  size_t start = 0;
  int episodes = 1;
  uint32_t salt = 0;  ///< 0 = unsalted; else stamped into two boundary floats
};

struct Arrival {
  double due_s;  ///< from the start of the load
  int phase;     ///< index into the phase list
  Meta meta;
};

struct Phase {
  const char* name;
  double rate;     ///< mean requests per second
  double seconds;
  bool timed;
  int burst = 1;   ///< requests due together at each Poisson arrival
};

/// Two wet cells on the open western boundary, whose frame-1 ζ carries
/// the per-request salt: boundary values are model inputs, so salted
/// windows are genuinely different forwards, not just different keys.
std::pair<size_t, size_t> salt_cells(const World& w) {
  std::vector<size_t> cells;
  for (int iy = 0; iy < w.grid.ny() && cells.size() < 2; ++iy) {
    if (w.grid.wet(0, iy)) cells.push_back(static_cast<size_t>(iy) *
                                           static_cast<size_t>(w.grid.nx()));
  }
  if (cells.size() != 2) throw std::runtime_error("no wet boundary cells");
  return {cells[0], cells[1]};
}

void stamp_salt(float& x, uint32_t bits12) {
  uint32_t b;
  std::memcpy(&b, &x, sizeof b);
  b = (b & ~0xFFFu) | (bits12 & 0xFFFu);
  std::memcpy(&x, &b, sizeof b);
}

std::vector<CenterFields> build_window(const World& w, const Meta& m,
                                       std::pair<size_t, size_t> cells) {
  auto win = test_window(w, m.start, m.episodes);
  if (m.salt != 0) {
    stamp_salt(win[1].zeta[cells.first], m.salt);
    stamp_salt(win[1].zeta[cells.second], m.salt >> 12);
  }
  return win;
}

/// One request the oracle replays: its window and what the server said.
struct Sampled {
  Meta meta;
  uint64_t digest = 0;
  bool fallback = false;
  bool verified = false;
  double mean_residual = 0.0;
  bool pass = false;
};

/// What the collector measured.
struct LoadReport {
  explicit LoadReport(size_t phases = 0)
      : latency_ms(phases),
        ref_latency_ms(phases),
        serviced(phases),
        nonhit(phases),
        nonhit_batch_sum(phases) {}
  std::vector<std::vector<double>> latency_ms;  ///< per phase; +inf = failed
  /// The same at reference speed: the service part of each latency divided
  /// by the server core's slowdown while it ran.
  std::vector<std::vector<double>> ref_latency_ms;
  /// Per phase, beside latency_ms: when the request was seen done and its
  /// service time in ms (0 if it failed).
  std::vector<std::vector<std::pair<Clock::time_point, double>>> serviced;
  std::vector<double> hit_ms, miss_ms;          ///< timed phases
  std::vector<double> queue_ms, service_ms;     ///< timed phases
  std::vector<double> late_ms_nominal;          ///< generator lateness
  double late_max_ms = 0.0;
  int64_t attempted = 0, failed = 0;  ///< timed phases
  int64_t served = 0, fallbacks = 0, degraded = 0;
  std::vector<int64_t> nonhit, nonhit_batch_sum;  ///< per phase
  ZetaError zeta;
  std::vector<Sampled> sampled;
  co::serve::ServerStatsSnapshot stats_begin, stats_end;
  TensorCounters tensor;  ///< from the first timed arrival
  double rss_mb = 0.0;    ///< median over the timed phases
  double timed_seconds = 0.0;
};

/// Fold one timed request, seen done at `done`, into the report; `r` is
/// null when the request was rejected or failed, which counts as an
/// infinite latency.
void note_result(LoadReport& rep, const World& w, int phase, const Meta& meta,
                 const ForecastResult* r, double ms, Clock::time_point done) {
  ++rep.attempted;
  rep.latency_ms[static_cast<size_t>(phase)].push_back(ms);
  rep.serviced[static_cast<size_t>(phase)].push_back(
      {done, r ? r->service_seconds * 1e3 : 0.0});
  if (r == nullptr) {
    ++rep.failed;
    return;
  }
  ++rep.served;
  (r->cache_hit ? rep.hit_ms : rep.miss_ms).push_back(ms);
  rep.queue_ms.push_back(r->queue_seconds * 1e3);
  rep.service_ms.push_back(r->service_seconds * 1e3);
  if (r->fallback) ++rep.fallbacks;
  if (r->degraded) ++rep.degraded;
  if (!r->cache_hit) {
    ++rep.nonhit[static_cast<size_t>(phase)];
    rep.nonhit_batch_sum[static_cast<size_t>(phase)] += r->batch_size;
  }
  for (size_t f = 0; f < r->frames.size(); ++f) {
    rep.zeta.add(w.grid, r->frames[f], w.test_fields[meta.start + 1 + f]);
  }
}

co::serve::ServerConfig serve_config(const World& w, bool traced) {
  co::serve::ServerConfig c;
  c.workers = 2;
  // Open loop: the generator must never block, so overflow rejects (and
  // a rejection counts as a failure); the capacity only binds if the
  // server collapses.
  c.queue_capacity = 4096;
  c.overflow = co::serve::ServerConfig::Overflow::kReject;
  c.batch.max_batch = 8;
  c.batch.max_wait_us = 2000;
  // The default policy with its byte budget scaled to the run: 32 MB fill
  // after ~150 distinct results, so serve_unique reaches the steady state
  // a long-lived server is in — a full cache, evicting — by the end of
  // its nominal phase, instead of the 256 MB default's ~1200, which a run
  // at these rates never inserts.
  c.cache.max_bytes = 32ull << 20;
  c.fallback = co::serve::FallbackContext{w.tides, w.params};
  c.obs.profile_stages = traced;
  c.obs.trace.enabled = traced;
  c.obs.trace.sample_rate = 1.0;
  return c;
}

/// Drive `arrivals` into a fresh server from one generator thread while
/// one collector thread polls the futures; returns what was measured.
/// The server's threads share one core, whose speed is sampled, so that
/// each request's service time can be put at reference speed; at these
/// rates its two workers seldom have work at the same time.
LoadReport drive_load(World& w, const std::vector<Phase>& phases,
                      const std::vector<Arrival>& arrivals, bool traced,
                      bool self_test, Spans& spans) {
  const auto cells = salt_cells(w);
  CoreSpeed core;
  co::serve::ForecastServer server({{w.model.get(), w.spec(), 0}}, w.norm(),
                                   &w.grid, serve_config(w, traced));
  core.release();
  LoadReport rep(phases.size());
  std::vector<double> phase_start(phases.size(), 0.0);
  for (size_t p = 1; p < phases.size(); ++p) {
    phase_start[p] = phase_start[p - 1] + phases[p - 1].seconds;
  }
  size_t first_timed = phases.size();
  for (size_t p = 0; p < phases.size(); ++p) {
    if (phases[p].timed && first_timed == phases.size()) first_timed = p;
  }

  struct Pending {
    uint64_t id;
    int phase;
    Meta meta;
    Clock::time_point due;
    std::optional<std::future<ForecastResult>> fut;
  };
  std::mutex handoff_m;
  std::vector<Pending> handoff;
  std::atomic<bool> gen_done{false};
  RssSampler rss;

  std::vector<int> phase_span(phases.size(), -1);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  for (size_t p = 0; p < phases.size(); ++p) {
    const double a = phase_start[p];
    phase_span[p] = spans.add(phases[p].name, at(a), at(a + phases[p].seconds));
  }

  std::thread generator([&] {
    bool snapped = false;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      const auto due = at(a.due_s);
      if (!snapped && static_cast<size_t>(a.phase) >= first_timed) {
        rep.stats_begin = server.stats();
        rep.tensor.begin();
        rss.start();
        snapped = true;
      }
      // Wake 2 ms early and spin: a core that sleeps for tens of ms
      // between sparse arrivals can take milliseconds to wake on a shared
      // host (with 0.3 ms, serve_unique's nominal p99 lateness was 3-4 ms).
      std::this_thread::sleep_until(due - std::chrono::microseconds(2000));
      co::serve::ForecastRequest req;
      req.window = build_window(w, a.meta, cells);
      while (Clock::now() < due) {
      }
      const auto submitted = Clock::now();
      const double late = ms_between(due, submitted);
      if (phases[static_cast<size_t>(a.phase)].timed) {
        rep.late_max_ms = std::max(rep.late_max_ms, late);
        if (static_cast<size_t>(a.phase) == first_timed) {
          rep.late_ms_nominal.push_back(late);
        }
      }
      Pending pend{i, a.phase, a.meta, due, server.submit(std::move(req))};
      std::lock_guard<std::mutex> lock(handoff_m);
      handoff.push_back(std::move(pend));
    }
    gen_done.store(true, std::memory_order_release);
  });

  std::thread collector([&] {
    std::vector<Pending> outstanding;
    bool flipped = false;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(handoff_m);
        for (auto& p : handoff) outstanding.push_back(std::move(p));
        handoff.clear();
      }
      const bool done = gen_done.load(std::memory_order_acquire);
      const auto now = Clock::now();
      for (size_t k = 0; k < outstanding.size();) {
        Pending& p = outstanding[k];
        const bool timed = phases[static_cast<size_t>(p.phase)].timed;
        std::optional<ForecastResult> res;
        if (p.fut) {
          if (p.fut->wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            ++k;
            continue;
          }
          try {
            res = p.fut->get();
          } catch (...) {
          }
        }
        if (timed) {
          note_result(rep, w, p.phase, p.meta, res ? &*res : nullptr,
                      res ? ms_between(p.due, now) : kInf, now);
          spans.add("request", p.due, now,
                    phase_span[static_cast<size_t>(p.phase)], p.meta.episodes,
                    spans.new_request());
        }
        if (res) {
          ForecastResult& r = *res;
          if (p.id % kOracleStride == 0) {
            if (self_test && !flipped) {
              // Prove the oracle trips: one flipped low bit in one result.
              uint32_t b;
              std::memcpy(&b, &r.frames[0].zeta[0], sizeof b);
              b ^= 1u;
              std::memcpy(&r.frames[0].zeta[0], &b, sizeof b);
              flipped = true;
            }
            rep.sampled.push_back({p.meta, frames_digest(r.frames), r.fallback,
                                   r.verified, r.verdict.mean_residual,
                                   r.verdict.pass});
          }
        }
        outstanding[k] = std::move(outstanding.back());
        outstanding.pop_back();
      }
      if (done && outstanding.empty()) {
        std::lock_guard<std::mutex> lock(handoff_m);
        if (handoff.empty()) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  generator.join();
  collector.join();
  rep.rss_mb = rss.stop();
  rep.stats_end = server.stats();
  server.shutdown();
  for (size_t p = 0; p < phases.size(); ++p) {
    for (size_t i = 0; i < rep.latency_ms[p].size(); ++i) {
      const auto [done, service_ms] = rep.serviced[p][i];
      const auto began =
          done - std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(service_ms));
      rep.ref_latency_ms[p].push_back(
          rep.latency_ms[p][i] - service_ms +
          service_ms / core.slowdown(began, done));
    }
  }
  double timed = 0.0;
  for (const Phase& p : phases) timed += p.timed ? p.seconds : 0.0;
  rep.timed_seconds = timed;
  return rep;
}

/// Replay every sampled result serially and compare bit for bit: the
/// surrogate path (rollout + check_sequence) or, when the result says it
/// fell back, the numerical episode.  Returns the mismatch count.
int64_t oracle_check(World& w, const std::vector<Sampled>& sampled,
                     Result& out) {
  const auto cells = salt_cells(w);
  co::core::MassVerifier verifier(w.grid, co::serve::ServerConfig{}.threshold);
  struct Ref {
    uint64_t digest;
    double mean_residual;
    bool pass;
  };
  std::vector<std::pair<std::vector<uint64_t>, Ref>> cache;
  int64_t mismatches = 0;
  for (const Sampled& s : sampled) {
    const std::vector<uint64_t> key = {s.meta.start,
                                       static_cast<uint64_t>(s.meta.episodes),
                                       s.meta.salt, s.fallback ? 1u : 0u};
    auto it = std::find_if(cache.begin(), cache.end(),
                           [&](const auto& e) { return e.first == key; });
    if (it == cache.end()) {
      const auto window = build_window(w, s.meta, cells);
      const CenterFields current =
          co::data::denormalized_copy(window.front(), w.norm());
      std::vector<CenterFields> frames;
      Ref ref{0, 0.0, false};
      if (s.fallback) {
        frames = co::core::numerical_episode(w.grid, w.tides, w.params,
                                             current, current.time,
                                             kSnapshotDt, kT * s.meta.episodes);
      } else {
        frames = co::core::rollout(*w.model, w.spec(), w.norm(), window,
                                   s.meta.episodes);
        std::vector<CenterFields> seq{current};
        seq.insert(seq.end(), frames.begin(), frames.end());
        const auto v = verifier.check_sequence(seq, kSnapshotDt);
        ref.mean_residual = v.mean_residual;
        ref.pass = v.pass;
      }
      ref.digest = frames_digest(frames);
      cache.push_back({key, ref});
      it = cache.end() - 1;
    }
    const Ref& ref = it->second;
    bool ok = ref.digest == s.digest;
    if (!s.fallback && s.verified) {
      ok = ok && std::memcmp(&ref.mean_residual, &s.mean_residual,
                             sizeof(double)) == 0 &&
           ref.pass == s.pass;
    }
    if (!ok) ++mismatches;
  }
  if (mismatches > 0) {
    out.fail(std::to_string(mismatches) + " of " +
             std::to_string(sampled.size()) +
             " sampled results differ from the serial reference");
  }
  out.add("oracle.checked", static_cast<double>(sampled.size()), "count");
  return mismatches;
}

/// Seeded Poisson arrivals over the phases, each of a phase's `burst`
/// requests; `choose` picks each request's window.
template <class Choose>
std::vector<Arrival> make_arrivals(const std::vector<Phase>& phases,
                                   uint64_t seed, Choose&& choose) {
  co::util::Rng rng(seed);
  std::vector<Arrival> out;
  double base = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    const double events_per_s = phases[p].rate / phases[p].burst;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / events_per_s;
      if (t >= phases[p].seconds) break;
      for (int k = 0; k < phases[p].burst; ++k) {
        Arrival a{base + t, static_cast<int>(p), {}};
        a.meta = choose(out.size(), a.due_s, rng);
        out.push_back(a);
      }
    }
    base += phases[p].seconds;
  }
  return out;
}

/// Mean forward batch size of the non-hit requests of phase `p`.
double distinct_per_forward(const LoadReport& rep, size_t p) {
  return rep.nonhit[p] ? static_cast<double>(rep.nonhit_batch_sum[p]) /
                             static_cast<double>(rep.nonhit[p])
                       : 0.0;
}

/// `nominal` and `peak` index the two timed phases (the same phase for a
/// closed-loop probe).
void report_serve_layers(const LoadReport& rep, size_t nominal, size_t peak,
                         Result& out) {
  const auto& b = rep.stats_begin;
  const auto& e = rep.stats_end;
  const double served = static_cast<double>(std::max<int64_t>(1, rep.served));
  const double probes = static_cast<double>(
      (e.cache_hits - b.cache_hits) + (e.cache_prefix_hits - b.cache_prefix_hits) +
      (e.cache_misses - b.cache_misses));
  const double secs = std::max(1e-9, rep.timed_seconds);
  out.add("serve.queue_wait_p50_ms", percentile(rep.queue_ms, 0.50), "ms",
          static_cast<int64_t>(rep.queue_ms.size()));
  out.add("serve.queue_wait_p99_ms", percentile(rep.queue_ms, 0.99), "ms",
          static_cast<int64_t>(rep.queue_ms.size()));
  out.add("serve.service_p50_ms", percentile(rep.service_ms, 0.50), "ms",
          static_cast<int64_t>(rep.service_ms.size()));
  out.add("serve.service_p99_ms", percentile(rep.service_ms, 0.99), "ms",
          static_cast<int64_t>(rep.service_ms.size()));
  out.add("serve.distinct_per_forward", distinct_per_forward(rep, nominal),
          "count", rep.nonhit[nominal]);
  out.add("serve.peak_distinct_per_forward", distinct_per_forward(rep, peak),
          "count", rep.nonhit[peak]);
  out.add("serve.forwards_per_request",
          static_cast<double>(e.batches - b.batches) / served, "ratio");
  out.add("serve.coalesced_frac",
          static_cast<double>(e.coalesced - b.coalesced) / served, "ratio");
  out.add("serve.degraded_frac", static_cast<double>(rep.degraded) / served,
          "ratio");
  out.add("serve.breaker_trips",
          static_cast<double>(e.breaker_trips - b.breaker_trips), "count");
  out.add("serve.retries", static_cast<double>(e.retries - b.retries),
          "count");
  out.add("serve.failed_frac",
          static_cast<double>(rep.failed) /
              static_cast<double>(std::max<int64_t>(1, rep.attempted)),
          "ratio");
  out.add("serve.fallback_rate", static_cast<double>(rep.fallbacks) / served,
          "ratio");
  out.add("cache.hit_rate",
          probes > 0 ? static_cast<double>(e.cache_hits - b.cache_hits) / probes
                     : 0.0,
          "ratio");
  out.add("cache.prefix_hit_rate",
          probes > 0 ? static_cast<double>(e.cache_prefix_hits -
                                           b.cache_prefix_hits) /
                           probes
                     : 0.0,
          "ratio");
  out.add("cache.inserts_per_s",
          static_cast<double>(e.cache_inserts - b.cache_inserts) / secs, "1/s");
  out.add("cache.evictions_per_s",
          static_cast<double>(e.cache_evictions - b.cache_evictions) / secs,
          "1/s");
  out.add("cache.mb", static_cast<double>(e.cache_bytes) / 1048576.0, "MB");
  out.add("serve.hit_latency_p50_ms", percentile(rep.hit_ms, 0.50), "ms",
          static_cast<int64_t>(rep.hit_ms.size()));
  out.add("serve.miss_latency_p50_ms", percentile(rep.miss_ms, 0.50), "ms",
          static_cast<int64_t>(rep.miss_ms.size()));
}

/// How late the load generator submitted, against the due times.
void report_generator(const LoadReport& rep, Result& out) {
  out.add("gen.late_p99_ms", percentile(rep.late_ms_nominal, 0.99), "ms",
          static_cast<int64_t>(rep.late_ms_nominal.size()));
  out.add("gen.late_max_ms", rep.late_max_ms, "ms");
}

double obs_overhead_pct(double traced, double untraced) {
  return untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

/// The end-to-end latency metrics.  `nominal` and `peak` hold the unit
/// latencies (ms) of the two load phases; a closed-loop workload has one
/// constant load, so it passes the same sample twice.  Only the medians
/// are gated.  The mean (over the completed units; failures are counted
/// by `success_frac`) and the tail percentiles are printed but not gated:
/// on a shared host they spread with scheduler stalls, not with the code
/// (the mean of `serve_unique` and `serve_live` spread 26-30% between
/// runs).  A tail percentile is printed only where at least ten samples
/// lie beyond it.
void report_latency(Result& out, const std::vector<double>& nominal,
                    const std::vector<double>& peak) {
  const auto n = static_cast<int64_t>(nominal.size());
  const auto np = static_cast<int64_t>(peak.size());
  out.add("latency_p50_ms", median(nominal), "ms", n);
  out.add("peak_latency_p50_ms", median(peak), "ms", np);
  double sum = 0.0;
  int64_t done = 0;
  for (double ms : nominal) {
    if (std::isfinite(ms)) {
      sum += ms;
      ++done;
    }
  }
  out.add("latency_mean_ms", done ? sum / static_cast<double>(done) : kInf,
          "ms", done);
  for (const auto& [name, v] :
       {std::pair{"latency", &nominal}, std::pair{"peak_latency", &peak}}) {
    for (const auto& [label, q] :
         {std::pair{"p95", 0.95}, std::pair{"p99", 0.99}}) {
      const auto size = static_cast<double>(v->size());
      if (size * (1.0 - q) < 10.0) continue;
      out.add(std::string(name) + "_" + label + "_ms", percentile(*v, q), "ms",
              static_cast<int64_t>(v->size()));
    }
  }
}

void set_profiler(bool on) {
  co::obs::StageProfiler::instance().set_enabled(on);
  co::obs::StageProfiler::instance().reset();
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_unique / serve_live
// ---------------------------------------------------------------------------

void run_serve(World& w, const RunOptions& opt, bool live, Spans& spans,
               Result& out) {
  // The rates keep the forward path at most about a quarter busy.  Queueing amplifies
  // every swing in the speed of a shared host: at 40 rps serve_unique's
  // median spread 27-31% between runs.  Its nominal phase is sparse
  // enough that nearly every forward carries one request; its peak phase
  // arrives in bursts of 8 (a client asking for several windows at once),
  // so batches form without a rate near saturation.  A burst's requests
  // finish together, so the peak median rests on the bursts' count: at 4
  // bursts a second (~30 per run) it spread up to 12% between runs, at 6
  // (~45) under 5%.
  const double s = opt.seconds;
  const double warm = live ? std::min(1.5, 0.15 * s) : std::min(1.0, 0.1 * s);
  const std::vector<Phase> phases =
      live ? std::vector<Phase>{{"warmup", 400.0, warm, false},
                                {"nominal", 400.0, 0.5 * s, true},
                                {"peak", 800.0, 0.5 * s, true}}
           : std::vector<Phase>{{"warmup", 20.0, warm, false},
                                {"nominal", 20.0, 0.5 * s, true},
                                {"peak", 48.0, 0.5 * s, true, 8}};
  const size_t frames = w.test_fields_norm.size();
  std::vector<Arrival> arrivals;
  if (live) {
    // The public "current forecast": a new newest window every 0.5 s;
    // requests favour the newest windows, and a quarter are 2-episode
    // chains whose first episode is already cached.  The benchmark's
    // clock runs fast — consecutive windows sit `stride` snapshots apart —
    // so one run samples the whole 14-day archive rather than one tide.
    const size_t slots = static_cast<size_t>((warm + s) / 0.5) + 5;
    const size_t stride =
        std::clamp<size_t>((frames - 2 * kT - 1) / slots, 1, 21);
    // The grid of windows is the same on every run (the seed drives the
    // traffic over it), so the forecast-error guard compares like with like.
    arrivals = make_arrivals(
        phases, opt.seed, [&](size_t, double due, co::util::Rng& rng) {
          const auto cur = static_cast<size_t>(due / 0.5) + 4;
          const double u = rng.uniform();
          const size_t back = u < 0.60 ? 0 : u < 0.85 ? 1 : u < 0.95 ? 2 : 3;
          const bool chain = rng.uniform() < 0.25;
          Meta m;
          m.episodes = chain ? 2 : 1;
          m.start = (cur - back - (chain ? 1 : 0)) * stride;
          return m;
        });
  } else {
    // Every request distinct: an evenly spread seeded start plus a unique
    // 24-bit salt.
    arrivals = make_arrivals(
        phases, opt.seed, [&](size_t i, double, co::util::Rng&) {
          Meta m;
          m.start = weyl(opt.seed + 17, static_cast<int64_t>(i), frames - kT);
          m.salt = static_cast<uint32_t>(i + 1);
          return m;
        });
  }

  const bool traced = spans.enabled();
  LoadReport untraced;
  if (traced) {
    Spans off(false);
    set_profiler(false);
    untraced = drive_load(w, phases, arrivals, false, false, off);
  }
  LoadReport rep = drive_load(w, phases, arrivals, traced, opt.self_test, spans);
  const int64_t mismatches = oracle_check(w, rep.sampled, out);
  out.attempted = rep.attempted;
  out.failed = rep.failed + mismatches;

  const double p50 = median(rep.ref_latency_ms[1]);
  if (!traced) {
    report_latency(out, rep.ref_latency_ms[1], rep.ref_latency_ms[2]);
    out.add("wall.latency_p50_ms", median(rep.latency_ms[1]), "ms",
            static_cast<int64_t>(rep.latency_ms[1].size()));
    out.add("wall.peak_latency_p50_ms", median(rep.latency_ms[2]), "ms",
            static_cast<int64_t>(rep.latency_ms[2].size()));
    out.add("rmse_zeta_cm", rep.zeta.rmse_cm(), "cm");
    out.add("rss_mb", rep.rss_mb, "MB");
    return;
  }
  report_serve_layers(rep, 1, 2, out);
  // The generator vouches for the end-to-end runs, which are untraced.
  report_generator(untraced, out);
  rep.tensor.report(out, rep.attempted);
  out.add("obs.trace_overhead_pct",
          obs_overhead_pct(p50, median(untraced.ref_latency_ms[1])), "%");
  out.add("samples.nominal", static_cast<double>(rep.latency_ms[1].size()),
          "count");
  out.add("samples.peak", static_cast<double>(rep.latency_ms[2].size()),
          "count");
}

void run_serve_probe(World& w, const std::vector<size_t>& starts, Spans& spans,
                     Result& out) {
  co::serve::ForecastServer server({{w.model.get(), w.spec(), 0}}, w.norm(),
                                   &w.grid, serve_config(w, true));
  LoadReport rep(1);
  rep.stats_begin = server.stats();
  const int root = spans.open("serve.probe");
  const auto t0 = Clock::now();
  auto ready = t0;
  const size_t n = std::min<size_t>(50, starts.size());
  for (size_t i = 0; i < 2 * n; ++i) {
    const Meta meta{starts[i / 2], 1, 0};
    co::serve::ForecastRequest req;
    req.window = test_window(w, meta.start, 1);
    const auto submitted = Clock::now();
    // Closed loop: each request is due when the previous one completed.
    const double late = ms_between(ready, submitted);
    rep.late_ms_nominal.push_back(late);
    rep.late_max_ms = std::max(rep.late_max_ms, late);
    auto fut = server.submit(std::move(req));
    std::optional<ForecastResult> res;
    try {
      if (fut) res = fut->get();
    } catch (...) {
    }
    ready = Clock::now();
    note_result(rep, w, 0, meta, res ? &*res : nullptr,
                res ? ms_between(submitted, ready) : kInf, ready);
    spans.add("request", submitted, ready, root, 0, spans.new_request());
  }
  spans.close(root);
  rep.timed_seconds = seconds_since(t0);
  rep.stats_end = server.stats();
  server.shutdown();
  report_serve_layers(rep, 0, 0, out);
  report_generator(rep, out);
}

// ---------------------------------------------------------------------------
// hindcast_12d
// ---------------------------------------------------------------------------

co::core::WorkflowResult hindcast(World& w, size_t offset) {
  co::core::WorkflowConfig cfg;
  cfg.threshold = kHindcastThreshold;
  cfg.snapshot_dt = kSnapshotDt;
  const std::span<const CenterFields> truth(w.test_fields_norm);
  return co::core::run_workflow(
      *w.model, w.spec(), w.norm(), w.grid, w.tides, w.params,
      truth.subspan(offset), kHindcastEpisodes,
      w.test_t0 + static_cast<double>(offset) * kSnapshotDt, cfg);
}

namespace {

struct HindcastPass {
  std::vector<double> forecast_ms;       ///< at reference speed
  std::vector<double> wall_forecast_ms;  ///< as measured
  std::vector<CenterFields> first_frames;  ///< of the first timed forecast
  ZetaError zeta;
  double ai_s = 0.0, verify_s = 0.0, roms_s = 0.0, pass = 0.0;
  double rss_mb = 0.0;
  int64_t n = 0;
  int64_t nonfinite = 0;  ///< forecasts with a non-finite frame
};

/// Start offset of forecast i, 0..96 frames into the test archive.
size_t hindcast_offset(uint64_t seed, int64_t i) {
  return weyl(seed * 0x2545F4914F6CDD1Dull + 3, i, kHindcastMaxOffset + 1);
}

HindcastPass hindcast_pass(World& w, const RunOptions& opt, Spans& spans) {
  HindcastPass p;
  RssSampler rss;
  rss.start();
  const CoreSpeed core;
  const int root = spans.open("hindcast");
  const auto t0 = Clock::now();
  while (p.n < 3 || seconds_since(t0) < opt.seconds) {
    const size_t off = hindcast_offset(opt.seed, p.n);
    co::core::WorkflowResult r;
    Clock::time_point a, b;
    const UnitTime t = time_unit(core, [&] {
      a = Clock::now();
      r = hindcast(w, off);
      b = Clock::now();
    });
    spans.add("forecast", a, b, root, static_cast<int64_t>(off));
    p.forecast_ms.push_back(t.ref_ms);
    p.wall_forecast_ms.push_back(t.wall_ms);
    if (!all_finite(r.frames)) ++p.nonfinite;
    for (size_t f = 0; f < r.frames.size(); ++f) {
      p.zeta.add(w.grid, r.frames[f], w.test_fields[off + 1 + f]);
    }
    p.ai_s += r.ai_seconds;
    p.verify_s += r.verify_seconds;
    p.roms_s += r.roms_seconds;
    p.pass += r.pass_rate();
    if (p.n == 0) p.first_frames = std::move(r.frames);
    ++p.n;
  }
  spans.close(root);
  p.rss_mb = rss.stop();
  return p;
}

}  // namespace

void run_hindcast(World& w, const RunOptions& opt, Spans& spans,
                  Result& out) {
  // The warm-up forecast starts where the first timed one does, so the
  // timed one doubles as its bitwise re-run.
  const auto warm = hindcast(w, hindcast_offset(opt.seed, 0));

  const bool traced = spans.enabled();
  double untraced_p50 = 0.0;
  if (traced) {
    Spans off(false);
    set_profiler(false);
    untraced_p50 = median(hindcast_pass(w, opt, off).forecast_ms);
    set_profiler(true);
  }
  TensorCounters tc;
  tc.begin();
  HindcastPass p = hindcast_pass(w, opt, spans);
  const int64_t units = p.n;
  if (traced) tc.report(out, units);

  // Oracle: the warm-up forecast re-ran bit for bit, and every frame of
  // every timed forecast is finite.
  if (opt.self_test) {
    float& x = p.first_frames[0].zeta[0];
    x = std::nextafter(x, std::numeric_limits<float>::infinity());
  }
  out.attempted = p.n;
  if (!same_bits(warm.frames, p.first_frames)) {
    out.fail("re-run of the warm-up forecast is not bitwise identical");
    ++out.failed;
  }
  if (p.nonfinite > 0) {
    out.fail(std::to_string(p.nonfinite) + " of " + std::to_string(p.n) +
             " forecasts have non-finite frames");
    out.failed += p.nonfinite;
  }

  const double n = static_cast<double>(p.n);
  const double p50 = median(p.forecast_ms);
  if (!traced) {
    report_latency(out, p.forecast_ms, p.forecast_ms);
    out.add("wall.latency_p50_ms", median(p.wall_forecast_ms), "ms", p.n);
    out.add("rmse_zeta_cm", p.zeta.rmse_cm(), "cm");
    out.add("rss_mb", p.rss_mb, "MB");
    return;
  }
  out.add("workflow.ai_s", p.ai_s / n, "s");
  out.add("workflow.verify_s", p.verify_s / n, "s");
  out.add("workflow.roms_s", p.roms_s / n, "s");
  out.add("workflow.pass_rate", p.pass / n, "ratio");
  out.add("obs.trace_overhead_pct", obs_overhead_pct(p50, untraced_p50), "%");
  out.add("samples.nominal", n, "count");
  out.add("samples.peak", n, "count");
}

}  // namespace bench
