#pragma once

/// \file communicator.hpp
/// MPI-style message passing over in-process threads.
///
/// The paper's ROMS substrate is parallelized with MPI: the horizontal
/// domain is decomposed into rectangular tiles, each owned by one rank,
/// with halo (ghost-cell) exchange between neighbours each time step.  We
/// reproduce the *programming model* — explicit ranks, two-sided send/recv
/// with tags, collectives — with threads standing in for processes, so the
/// same communication structure (and its costs, measured in messages and
/// bytes) is exercised without a real cluster.
///
/// Failure semantics: a rank that throws aborts the world, which wakes
/// every sibling blocked in a recv or collective with `CommAborted` —
/// no rank is ever left deadlocked because a peer died.
///
/// Usage:
///   par::World world(4);
///   world.run([](par::Comm& comm) {
///     ...comm.rank(), comm.send(...), comm.allreduce_sum(...)...
///   });

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/check.hpp"

namespace coastal::par {

class World;

/// Base for communication failures.
class CommError : public std::runtime_error {
 public:
  explicit CommError(const std::string& what) : std::runtime_error(what) {}
};

/// Raised on ranks woken out of a blocking call because a sibling rank
/// failed (World::abort).  Distinguished from the *originating* error so
/// World::run can report the root cause, not the collateral unwinding.
class CommAborted : public CommError {
 public:
  CommAborted() : CommError("communicator aborted: a sibling rank failed") {}
};

/// Per-rank handle passed to the user function.  All methods are callable
/// only from the owning rank's thread.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Blocking two-sided send/recv of a float buffer, matched by
  /// (source, tag) like MPI_Send/MPI_Recv with explicit tags.
  void send(int dest, int tag, std::span<const float> data);
  /// Receives into `out`; the matched message must have exactly
  /// `out.size()` elements.
  void recv(int source, int tag, std::span<float> out);

  /// Collectives (all block until every rank participates).
  void barrier();
  /// In-place sum-allreduce over all ranks.
  void allreduce_sum(std::span<float> data);

  /// Message accounting for the halo-cost model (bytes sent by this rank).
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_sent() const { return messages_sent_; }

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  World* world_;
  int rank_;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_sent_ = 0;
};

/// Owns the mailboxes and collective state for `size` ranks.
class World {
 public:
  explicit World(int size);

  int size() const { return size_; }

  /// Spawn one thread per rank, run `fn(comm)` on each, join all.
  /// If any rank throws, the world is aborted — every sibling blocked in
  /// a recv or collective unwinds with CommAborted — and the originating
  /// exception (never the collateral CommAborted) is rethrown.  Each run
  /// starts from empty mailboxes, so a World is reusable after a failure.
  void run(const std::function<void(Comm&)>& fn);

 private:
  friend class Comm;

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    // keyed by (source, tag)
    std::map<std::pair<int, int>, std::queue<std::vector<float>>> slots;
  };

  /// Sticky until the next run(): wakes all blocked ranks with
  /// CommAborted.  Called when a rank throws.
  void abort();
  bool aborted() const;

  void push_message(int dest, int source, int tag, std::span<const float> data);
  void pop_message(int self, int source, int tag, std::span<float> out);
  void barrier_wait();

  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Abortable barrier: a plain generation-counted rendezvous instead of
  // std::barrier so abort() can wake waiters mid-phase.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  uint64_t barrier_generation_ = 0;
  std::atomic<bool> aborted_{false};

  // Collective scratch: reduction area guarded by a barrier on each side.
  std::mutex reduce_mutex_;
  std::vector<float> reduce_buf_;
  size_t reduce_len_ = 0;
};

}  // namespace coastal::par
