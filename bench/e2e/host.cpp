#include <pthread.h>

#include <algorithm>

#include "common.hpp"

namespace bench {

namespace {

// The reference computation: a 64x64x64 single-precision matrix product
// and two sweeps of a 5-point stencil over a 128x128 grid, about 0.07 ms
// on a warm core.  It is compiled with the benchmark's own flags, never
// the library's, so no change to the library moves it.  Under contention
// it slows about as much as the library's forward, training step and
// ocean episode do: timed side by side on one core, within a few percent
// of them while it reads up to 1.4, and overstating them by up to ~15%
// when it reads 2.  Its data are file-scope arrays, which is the form
// that was measured (as members of a struct GCC compiles it 2x slower);
// only one CoreSpeed samples at a time.
constexpr int kN = 64;
constexpr int kG = 128;
constexpr int kSweeps = 2;
/// Its time at reference speed: the mean on an uncontended core, sampled
/// as CoreSpeed does, of the host the bounds were calibrated on (Intel
/// Xeon, GCC 12.2, -O2).
constexpr double kReferenceMs = 0.080;
constexpr auto kPeriod = std::chrono::milliseconds(10);

float ref_a[kN * kN], ref_b[kN * kN], ref_c[kN * kN];
double ref_g[2][kG * kG];

void init_reference() {
  for (int i = 0; i < kN * kN; ++i) {
    ref_a[i] = static_cast<float>(i % 7) * 0.1f;
    ref_b[i] = static_cast<float>(i % 5) * 0.2f;
  }
  for (int i = 0; i < kG * kG; ++i) ref_g[0][i] = ref_g[1][i] = i % 11;
}

__attribute__((noinline)) double run_reference() {
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      float s = 0.0f;
      for (int k = 0; k < kN; ++k) s += ref_a[i * kN + k] * ref_b[k * kN + j];
      ref_c[i * kN + j] = 0.5f * (s + ref_c[i * kN + j]);
    }
  }
  for (int it = 0; it < kSweeps; ++it) {
    const double* src = ref_g[it & 1];
    double* dst = ref_g[(it + 1) & 1];
    for (int y = 1; y < kG - 1; ++y) {
      for (int x = 1; x < kG - 1; ++x) {
        const int i = y * kG + x;
        dst[i] = 0.2 * (src[i] + src[i - 1] + src[i + 1] + src[i - kG] +
                        src[i + kG]);
      }
    }
  }
  return static_cast<double>(ref_c[7]) + ref_g[0][300];
}

void pin(pthread_t thread, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(thread, sizeof set, &set);
}

}  // namespace

CoreSpeed::CoreSpeed() : cpu_(sched_getcpu()) {
  CPU_ZERO(&saved_);
  pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_);
  pin(pthread_self(), cpu_);
  thread_ = std::thread([this] { sample_loop(); });
}

CoreSpeed::~CoreSpeed() {
  stop_.store(true, std::memory_order_release);
  thread_.join();
  release();
}

void CoreSpeed::release() {
  if (!pinned_) return;
  pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  pinned_ = false;
}

void CoreSpeed::sample_loop() {
  pin(pthread_self(), cpu_);
  init_reference();
  volatile double sink = 0.0;
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(kPeriod);
    const auto t0 = Clock::now();
    sink = sink + run_reference();
    const double s = ms_between(t0, Clock::now()) / kReferenceMs;
    std::lock_guard<std::mutex> lock(m_);
    samples_.push_back({t0, s});
  }
}

double CoreSpeed::slowdown(Clock::time_point t0, Clock::time_point t1) const {
  std::lock_guard<std::mutex> lock(m_);
  // Samples are in time order.  The interval is widened by one period on
  // each side, so a unit shorter than the period still gets the samples
  // next to it: contention lasts 0.1-0.3 s, many periods.
  auto first = std::lower_bound(
      samples_.begin(), samples_.end(), t0 - kPeriod,
      [](const auto& sample, Clock::time_point t) { return sample.first < t; });
  double sum = 0.0;
  int n = 0;
  for (auto it = first; it != samples_.end() && it->first <= t1 + kPeriod;
       ++it) {
    sum += it->second;
    ++n;
  }
  return n > 0 ? sum / n : 1.0;
}

double CoreSpeed::median_slowdown() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<double> s;
  for (const auto& sample : samples_) s.push_back(sample.second);
  return s.empty() ? 1.0 : median(s);
}

}  // namespace bench
