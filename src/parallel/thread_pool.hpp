#pragma once

/// \file thread_pool.hpp
/// Resizable worker pool behind the tensor kernels' intra-op parallelism:
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
/// anything else throws util::CheckError naming the variable.  Shared by
/// ThreadPool::global() sizing and the tensor kernels' chunking decisions
/// so the two never drift.
int env_thread_override();

class ThreadPool {
 public:
  /// `num_threads == 0` selects hardware_concurrency (min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const;

  /// Re-size the worker pool in place: drains the queue, joins the old
  /// workers, and spawns `num_threads` fresh ones (0 re-reads
  /// `COASTAL_NUM_THREADS`, falling back to hardware_concurrency) — so a
  /// long-lived server can re-size kernel parallelism per deployment
  /// without a process restart.  A parallel_for running across the swap
  /// loses nothing: its caller claims every chunk no worker took.  Must
  /// not be called from inside a worker (the joining thread would
  /// deadlock on itself); concurrent resize() calls serialize.
  void resize(size_t num_threads);

  /// Run fn(begin..end) split into contiguous chunks and wait.  fn
  /// receives (chunk_begin, chunk_end).
  ///
  /// `nchunks == 0` picks ~4× the worker count — oversubscription smooths
  /// load imbalance on ragged iterations.  The caller claims chunks too,
  /// from the same counter as the helpers it enqueues (one queue entry per
  /// helper, not per chunk), so it never idles waiting for a worker to
  /// wake: a helper that arrives after the last chunk is claimed finds
  /// nothing to do, and one still queued when the caller is done is taken
  /// back off the queue.  Exception-safe: if a chunk throws, the remaining
  /// chunks still run and the first exception is rethrown once every
  /// chunk has finished.  When called from inside a chunk or a pool
  /// worker the range runs inline — blocking a worker on its own pool
  /// could deadlock.
  void parallel_for(size_t begin, size_t end,
                    const std::function<void(size_t, size_t)>& fn,
                    size_t nchunks = 0);

  /// parallel_for calls so far that handed chunks to workers (the rest ran
  /// inline).  Benchmarks read it to tell which rows used the pool.
  uint64_t dispatches() const;

  /// True while the calling thread is one of *any* ThreadPool's workers,
  /// or is running chunks of its own parallel_for.  Compute kernels use
  /// this to refuse nested parallelism.
  static bool in_worker();

  /// Process-wide shared pool (lazily constructed).  Sized by the
  /// `COASTAL_NUM_THREADS` env var when set, else hardware concurrency.
  static ThreadPool& global();

 private:
  /// One parallel_for in flight; each queue entry is a helper slot of
  /// one.
  struct Job;

  void worker_loop();
  void spawn_locked(size_t num_threads);
  void run_chunks(Job& job);

  mutable std::mutex mutex_;
  std::mutex resize_mutex_;  ///< serializes resize(); never held by workers
  std::vector<std::thread> workers_;
  std::deque<Job*> queue_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// Queued-but-unclaimed helper slots, readable without the mutex: idle
  /// workers spin on it briefly before parking on the condition variable,
  /// so back-to-back parallel_for batches (the serving steady state) reach
  /// warm workers without paying a futex wake per dispatch.
  std::atomic<int64_t> pending_{0};
  std::atomic<size_t> size_{0};  ///< == workers_.size(); lock-free for size()
  std::atomic<uint64_t> dispatches_{0};
};

}  // namespace coastal::par
