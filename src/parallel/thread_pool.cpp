#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "util/env.hpp"

namespace coastal::par {

namespace {
thread_local bool t_in_worker = false;

/// Bounded idle spin before a worker parks on the condition variable.
/// Sized to cover the gap between consecutive parallel_for dispatches of a
/// steady-state serving loop (tens of microseconds) without burning a core
/// when the pool is genuinely idle.
constexpr int kIdleSpinIters = 4096;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}
}  // namespace

int env_thread_override() {
  return static_cast<int>(
      util::env_int("COASTAL_NUM_THREADS", 0, 1024).value_or(0));
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t nworkers = std::max<size_t>(1, num_threads) - 1;
  workers_.reserve(nworkers);
  for (size_t i = 0; i < nworkers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

/// One parallel_for in flight.  Lives on the caller's stack: the caller
/// erases its unclaimed helper slots and waits for `helpers` to drain
/// before returning, so no worker touches it afterwards.
struct ThreadPool::Job {
  const std::function<void(size_t, size_t)>& fn;
  size_t begin, end, chunk, nchunks;
  std::atomic<size_t> next{0};  ///< next unclaimed chunk
  /// Workers inside run_chunks; changed only under mutex_.
  std::atomic<size_t> helpers{0};
  std::condition_variable idle{};  ///< signalled under mutex_ as they leave
  std::exception_ptr error{};      ///< first chunk exception; under mutex_
};

void ThreadPool::run_chunks(Job& job) {
  for (size_t c; (c = job.next.fetch_add(1, std::memory_order_relaxed)) <
                 job.nchunks;) {
    const size_t lo = job.begin + c * job.chunk;
    try {
      job.fn(lo, std::min(job.end, lo + job.chunk));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for(size_t begin, size_t end,
                              const std::function<void(size_t, size_t)>& fn,
                              size_t threads) {
  if (begin >= end) return;
  const size_t n = end - begin;
  if (in_worker()) {
    // A worker waiting on its own pool's queue can deadlock (all workers
    // blocked on chunks nobody is left to run); degrade to inline.
    fn(begin, end);
    return;
  }
  threads = threads == 0 ? size() : std::min(threads, size());
  const size_t nchunks = std::min(n, kOversubscribe * threads);
  if (threads <= 1 || nchunks <= 1) {
    fn(begin, end);
    return;
  }
  const size_t chunk = (n + nchunks - 1) / nchunks;
  Job job{fn, begin, end, chunk, (n + chunk - 1) / chunk};
  // One helper slot per further thread that could take a chunk the
  // caller leaves.
  const size_t nhelpers = std::min(job.nchunks, threads) - 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.insert(queue_.end(), nhelpers, &job);
  }
  pending_.fetch_add(static_cast<int64_t>(nhelpers),
                     std::memory_order_release);
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < nhelpers; ++i) cv_.notify_one();

  t_in_worker = true;  // the caller's chunks must not fan out again
  run_chunks(job);
  t_in_worker = false;

  // Every chunk is claimed.  Take back the slots no worker has popped yet,
  // then wait out the helpers still finishing a chunk they claimed.
  std::unique_lock<std::mutex> lock(mutex_);
  const auto unclaimed = std::remove(queue_.begin(), queue_.end(), &job);
  pending_.fetch_sub(queue_.end() - unclaimed, std::memory_order_relaxed);
  queue_.erase(unclaimed, queue_.end());
  if (job.helpers.load(std::memory_order_relaxed) != 0) {
    // A claimed chunk is short; spin for it before paying a futex wait.
    lock.unlock();
    for (int i = 0; i < kIdleSpinIters &&
                    job.helpers.load(std::memory_order_acquire) != 0;
         ++i) {
      cpu_relax();
    }
    lock.lock();
    job.idle.wait(lock, [&job] {
      return job.helpers.load(std::memory_order_relaxed) == 0;
    });
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    Job* job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!stop_ && queue_.empty()) {
        // Warm path: spin briefly off-lock watching the pending counter
        // before parking, so the next batch's chunks start without a futex
        // wake.  stop_ is checked again under the lock below.
        lock.unlock();
        for (int i = 0; i < kIdleSpinIters &&
                        pending_.load(std::memory_order_acquire) == 0;
             ++i) {
          cpu_relax();
        }
        lock.lock();
      }
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = queue_.front();
      queue_.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      job->helpers.fetch_add(1, std::memory_order_relaxed);
    }
    run_chunks(*job);
    // Under the lock, so the caller cannot see zero and destroy the job
    // before this notify is done with it.
    std::lock_guard<std::mutex> lock(mutex_);
    job->helpers.fetch_sub(1, std::memory_order_release);
    job->idle.notify_one();
  }
}

uint64_t ThreadPool::dispatches() const {
  return dispatches_.load(std::memory_order_relaxed);
}

bool ThreadPool::in_worker() { return t_in_worker; }

}  // namespace coastal::par
