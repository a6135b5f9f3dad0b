#pragma once

/// \file thread_pool.hpp
/// Fixed-size worker pool behind the tensor kernels' intra-op parallelism:
/// parallel_for splits a range into chunks that the caller and the
/// workers claim from one counter.  (The data loader runs its own
/// prefetch threads.)

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace coastal::par {

/// Thread-count override from the `COASTAL_NUM_THREADS` env var: an
/// integer in [0, 1024], 0 (or unset) meaning hardware concurrency;
/// anything else throws util::CheckError naming the variable.  Read once,
/// into tensor::kernels::config().num_threads.
int env_thread_override();

class ThreadPool {
 public:
  /// Chunks per thread a loop is split into: oversubscription smooths
  /// load imbalance on ragged iterations.
  static constexpr size_t kOversubscribe = 4;

  /// A pool whose loops run on up to `num_threads` threads: the caller of
  /// parallel_for plus `num_threads - 1` workers (0 counts as 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads a loop can run on: the caller plus the workers.
  size_t size() const { return workers_.size() + 1; }

  /// Run fn(chunk_begin, chunk_end) over [begin, end) on the caller plus
  /// at most `threads - 1` workers, in kOversubscribe × `threads`
  /// contiguous chunks, and wait.  `threads` is capped at size(); 0 means
  /// size().
  ///
  /// The caller claims chunks too, from the same counter as the helpers
  /// it enqueues (one queue entry per helper, not per chunk), so it never
  /// idles waiting for a worker to wake: a helper that arrives after the
  /// last chunk is claimed finds nothing to do, and one still queued when
  /// the caller is done is taken back off the queue.  Exception-safe: if
  /// a chunk throws, the remaining chunks still run and the first
  /// exception is rethrown once every chunk has finished.  When called
  /// from inside a chunk or a pool worker the range runs inline —
  /// blocking a worker on its own pool could deadlock.
  void parallel_for(size_t begin, size_t end,
                    const std::function<void(size_t, size_t)>& fn,
                    size_t threads = 0);

  /// parallel_for calls so far that handed chunks to workers (the rest ran
  /// inline).  Benchmarks read it to tell which rows used the pool.
  uint64_t dispatches() const;

  /// True while the calling thread is one of *any* ThreadPool's workers,
  /// or is running chunks of its own parallel_for.  Compute kernels use
  /// this to refuse nested parallelism.
  static bool in_worker();

 private:
  /// One parallel_for in flight; each queue entry is a helper slot of
  /// one.
  struct Job;

  void worker_loop();
  void run_chunks(Job& job);

  std::mutex mutex_;
  std::vector<std::thread> workers_;  ///< fixed after construction
  std::deque<Job*> queue_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// Queued-but-unclaimed helper slots, readable without the mutex: idle
  /// workers spin on it briefly before parking on the condition variable,
  /// so back-to-back parallel_for batches (the serving steady state) reach
  /// warm workers without paying a futex wake per dispatch.
  std::atomic<int64_t> pending_{0};
  std::atomic<uint64_t> dispatches_{0};
};

}  // namespace coastal::par
