#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>

#include <unistd.h>

#include "common.hpp"
#include "core/trainer.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace bench {

namespace co = coastal;

std::unique_ptr<World> make_world(const std::string& work_dir) {
  co::util::set_log_level(co::util::LogLevel::kWarn);
  auto w = std::make_unique<World>();
  w->params.dt = 10.0;
  co::ocean::generate_estuary(w->grid, co::ocean::EstuaryParams{}, 42);

  co::ocean::ArchiveConfig train_cfg;
  train_cfg.spinup_seconds = 2 * 3600.0;
  train_cfg.duration_seconds = 30 * 3600.0;
  train_cfg.interval_seconds = kSnapshotDt;
  auto train_fields = co::data::center_archive(
      w->grid,
      co::ocean::simulate_archive(w->grid, w->tides, w->params, train_cfg));

  // The test archive continues the same ocean past the training span.
  co::ocean::ArchiveConfig test_cfg;
  test_cfg.spinup_seconds =
      train_cfg.spinup_seconds + train_cfg.duration_seconds + 3600.0;
  test_cfg.duration_seconds = 14 * 86400.0;
  test_cfg.interval_seconds = kSnapshotDt;
  auto test_snaps =
      co::ocean::simulate_archive(w->grid, w->tides, w->params, test_cfg);
  w->test_t0 = test_snaps.front().time;
  w->test_fields = co::data::center_archive(w->grid, test_snaps);

  co::data::DatasetConfig dcfg;
  dcfg.T = kT;
  dcfg.stride = 1;
  dcfg.multiple_hw = 4;
  dcfg.multiple_d = 2;
  dcfg.dir = work_dir + "/train_store";
  std::filesystem::remove_all(dcfg.dir);
  std::filesystem::create_directories(dcfg.dir);
  w->train_set = co::data::build_dataset(train_fields, dcfg);

  w->test_fields_norm = w->test_fields;
  for (auto& f : w->test_fields_norm) w->norm().normalize_fields(f);

  co::core::SurrogateConfig& mcfg = w->model_config;
  mcfg.H = w->spec().H;
  mcfg.W = w->spec().W;
  mcfg.D = w->spec().D;
  mcfg.T = w->spec().T;
  mcfg.patch_h = 5;
  mcfg.patch_w = 5;
  mcfg.patch_d = 2;
  mcfg.embed_dim = 8;
  mcfg.stages = 3;
  mcfg.heads = {2, 4, 8};
  w->model = fresh_model(*w);
  return w;
}

void train_world_model(World& w) {
  co::core::TrainConfig tcfg;
  tcfg.epochs = 8;
  tcfg.lr = 2e-3f;
  tcfg.loader.num_workers = 1;
  co::core::train(*w.model, w.train_set, tcfg);
}

std::unique_ptr<co::core::SurrogateModel> fresh_model(const World& w) {
  co::util::Rng rng(7);
  return std::make_unique<co::core::SurrogateModel>(w.model_config, rng);
}

uint64_t weights_digest(const co::core::SurrogateModel& model) {
  co::util::ContentHash h;
  for (const auto& p : model.parameters()) h.update_f32(p.data());
  for (const auto& [name, b] : model.named_buffers()) h.update_f32(b.data());
  return h.digest();
}

uint64_t frames_digest(const std::vector<co::data::CenterFields>& frames) {
  co::util::ContentHash h;
  for (const auto& f : frames) {
    h.update_f32(f.u);
    h.update_f32(f.v);
    h.update_f32(f.w);
    h.update_f32(f.zeta);
  }
  return h.digest();
}

bool all_finite(const std::vector<co::data::CenterFields>& frames) {
  auto ok = [](const std::vector<float>& v) {
    return std::all_of(v.begin(), v.end(),
                       [](float x) { return std::isfinite(x); });
  };
  return std::all_of(frames.begin(), frames.end(), [&](const auto& f) {
    return ok(f.u) && ok(f.v) && ok(f.w) && ok(f.zeta);
  });
}

bool same_bits(const std::vector<co::data::CenterFields>& a,
               const std::vector<co::data::CenterFields>& b) {
  auto eq = [](const std::vector<float>& p, const std::vector<float>& q) {
    return p.size() == q.size() &&
           std::memcmp(p.data(), q.data(), p.size() * sizeof(float)) == 0;
  };
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!eq(a[i].u, b[i].u) || !eq(a[i].v, b[i].v) || !eq(a[i].w, b[i].w) ||
        !eq(a[i].zeta, b[i].zeta)) {
      return false;
    }
  }
  return true;
}

void ZetaError::add(const co::ocean::Grid& grid,
                    const co::data::CenterFields& pred,
                    const co::data::CenterFields& truth) {
  for (int iy = 0; iy < grid.ny(); ++iy) {
    for (int ix = 0; ix < grid.nx(); ++ix) {
      if (!grid.wet(ix, iy)) continue;
      const double d = static_cast<double>(pred.zeta[pred.cell2(iy, ix)]) -
                       truth.zeta[truth.cell2(iy, ix)];
      sum_sq += d * d;
      ++n;
    }
  }
}

double ZetaError::rmse_cm() const {
  return n ? 100.0 * std::sqrt(sum_sq / static_cast<double>(n)) : 0.0;
}

std::vector<co::data::CenterFields> test_window(const World& w, size_t start,
                                                int episodes) {
  const size_t len = static_cast<size_t>(episodes * kT + 1);
  return {w.test_fields_norm.begin() + static_cast<std::ptrdiff_t>(start),
          w.test_fields_norm.begin() +
              static_cast<std::ptrdiff_t>(start + len)};
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {
double rss_now_mb() {
  std::ifstream in("/proc/self/statm");
  double size_pages = 0.0, resident_pages = 0.0;
  in >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         1048576.0;
}
}  // namespace

void RssSampler::start() {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      samples_mb_.push_back(rss_now_mb());
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
}

double RssSampler::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  return samples_mb_.empty() ? rss_now_mb() : median(samples_mb_);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

int64_t Spans::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t Spans::request_for(int parent, uint64_t request) {
  if (request != 0) return request;
  return parent >= 0 ? spans_[static_cast<size_t>(parent)].request
                     : new_request();
}

int Spans::open(const char* name, int parent, int64_t extra) {
  if (!enabled_) return -1;
  spans_.push_back(
      {name, now_ns(), 0, parent, request_for(parent, 0), extra});
  return static_cast<int>(spans_.size() - 1);
}

void Spans::close(int id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = now_ns();
}

int Spans::add(const char* name, Clock::time_point t0, Clock::time_point t1,
               int parent, int64_t extra, uint64_t request) {
  if (!enabled_) return -1;
  auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  spans_.push_back(
      {name, ns(t0), ns(t1), parent, request_for(parent, request), extra});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Spans::Totals> Spans::totals() const {
  // Children of one parent may overlap (concurrent requests under one
  // phase span), so the covered part is the union of their intervals.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, Totals> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo0, hi0] : iv) {
      const int64_t lo = std::max(lo0, s.start_ns);
      const int64_t hi = std::min(hi0, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    Totals& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    const int64_t dur = s.end_ns - s.start_ns;
    t.wall_ms += static_cast<double>(dur) * 1e-6;
    t.self_ms += static_cast<double>(dur - covered) * 1e-6;
  }
  std::vector<Totals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

double Spans::mean_ms(const char* name, int64_t extra) const {
  double sum = 0.0;
  int64_t n = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) != 0) continue;
    if (extra >= 0 && s.extra != extra) continue;
    sum += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

std::string Spans::dump_json() const {
  // Same document shape as obs::TraceRecorder::dump_json(): traces keyed
  // by request id, each a forest of {stage, start_us, dur_us, extra,
  // children}.  Times are µs from the first span.
  int64_t t0 = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  std::vector<std::vector<int>> kids(spans_.size());
  std::map<uint64_t, std::vector<int>> roots;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && spans_[static_cast<size_t>(s.parent)].request ==
                             s.request) {
      kids[static_cast<size_t>(s.parent)].push_back(static_cast<int>(i));
    } else {
      roots[s.request].push_back(static_cast<int>(i));
    }
  }
  std::string out = "{\"traces\": [";
  auto emit = [&](auto&& self, int id, int depth) -> void {
    const Span& s = spans_[static_cast<size_t>(id)];
    out += "\n" + std::string(static_cast<size_t>(depth) * 2 + 6, ' ');
    out += "{\"stage\": \"" + std::string(s.name) + "\"";
    out += ", \"start_us\": " + std::to_string((s.start_ns - t0) / 1000);
    out += ", \"dur_us\": " + std::to_string((s.end_ns - s.start_ns) / 1000);
    if (s.extra != 0) out += ", \"extra\": " + std::to_string(s.extra);
    out += ", \"children\": [";
    const auto& k = kids[static_cast<size_t>(id)];
    for (size_t j = 0; j < k.size(); ++j) {
      if (j) out += ",";
      self(self, k[j], depth + 1);
    }
    out += "]}";
  };
  bool first_trace = true;
  for (const auto& [request, ids] : roots) {
    out += first_trace ? "\n" : ",\n";
    first_trace = false;
    out += "  {\"trace\": " + std::to_string(request) + ", \"spans\": [";
    for (size_t j = 0; j < ids.size(); ++j) {
      if (j) out += ",";
      emit(emit, ids[j], 0);
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace bench
