/// Unit tests for the message-passing substrate: thread pool,
/// communicator (point-to-point + collectives), Cartesian decomposition,
/// and halo exchange.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/communicator.hpp"
#include "parallel/decomposition.hpp"
#include "parallel/thread_pool.hpp"

namespace par = coastal::par;

TEST(ThreadPool, RunsSubmittedTasks) {
  par::ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 20; ++i)
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  par::ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForOversubscribesChunks) {
  par::ThreadPool pool(2);
  std::atomic<int> chunks{0};
  pool.parallel_for(0, 1000, [&](size_t, size_t) { chunks.fetch_add(1); });
  // Default chunking targets ~4x the worker count for load balance.
  EXPECT_GT(chunks.load(), 2);
  // An explicit chunk hint is honored.
  chunks = 0;
  pool.parallel_for(0, 1000,
                    [&](size_t, size_t) { chunks.fetch_add(1); }, 5);
  EXPECT_EQ(chunks.load(), 5);
}

TEST(ThreadPool, ParallelForPropagatesExceptionAndStaysUsable) {
  par::ThreadPool pool(3);
  // A throw in one chunk must not leak the other chunks' futures or wedge
  // the pool; the first exception is rethrown after all chunks finish.
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(0, 12,
                        [&](size_t lo, size_t) {
                          if (lo == 0) throw std::runtime_error("chunk 0");
                          completed.fetch_add(1);
                        },
                        12),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 11);
  // Pool still works afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(0, 50, [&](size_t lo, size_t hi) {
    counter.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  par::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 4, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      EXPECT_TRUE(par::ThreadPool::in_worker());
      // Would deadlock if this blocked on the same pool's queue.
      pool.parallel_for(0, 10, [&](size_t l, size_t h) {
        inner_total.fetch_add(static_cast<int>(h - l));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirRangeExactlyOnce) {
  // Several callers' helper slots share one queue: each caller must take
  // back only its own unclaimed slots and wait only for its own chunks.
  par::ThreadPool pool(3);
  constexpr int kCallers = 4, kRounds = 200, kN = 64;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        pool.parallel_for(0, kN, [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) hits[c][i].fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (auto& h : hits)
    for (auto& n : h) EXPECT_EQ(n.load(), kRounds);
}

TEST(ThreadPool, ResizeSwapsWorkerGenerationsSafely) {
  par::ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  // Queue work, then resize mid-flight: nothing may be lost — queued
  // tasks drain under the old generation or the new one.
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 16; ++i)
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  pool.resize(3);
  EXPECT_EQ(pool.size(), 3u);
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 16);
  // The fresh generation serves parallel_for as usual.
  std::atomic<int> sum{0};
  pool.parallel_for(0, 100, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
  pool.resize(1);
  EXPECT_EQ(pool.size(), 1u);
  pool.parallel_for(0, 10, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 4960);
}

TEST(ThreadPool, ResizeZeroRereadsEnvOverride) {
  // resize(0) re-reads COASTAL_NUM_THREADS at resize time — the
  // deployment-sizing path servers use — instead of the value cached at
  // process start.
  const char* saved = std::getenv("COASTAL_NUM_THREADS");
  const std::string saved_copy = saved ? saved : "";
  setenv("COASTAL_NUM_THREADS", "3", 1);
  par::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  pool.resize(0);
  EXPECT_EQ(pool.size(), 3u);
  if (saved) {
    setenv("COASTAL_NUM_THREADS", saved_copy.c_str(), 1);
  } else {
    unsetenv("COASTAL_NUM_THREADS");
  }
}

TEST(Communicator, PointToPointDelivery) {
  par::World world(3);
  world.run([](par::Comm& comm) {
    // Ring: send rank id to the right, receive from the left.
    std::vector<float> payload{static_cast<float>(comm.rank())};
    comm.send((comm.rank() + 1) % comm.size(), /*tag=*/7, payload);
    std::vector<float> got(1);
    comm.recv((comm.rank() + comm.size() - 1) % comm.size(), 7, got);
    EXPECT_FLOAT_EQ(got[0],
                    static_cast<float>((comm.rank() + comm.size() - 1) %
                                       comm.size()));
  });
}

TEST(Communicator, TagsKeepMessagesApart) {
  par::World world(2);
  world.run([](par::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<float>{1.0f});
      comm.send(1, 2, std::vector<float>{2.0f});
    } else {
      // Receive in the opposite order of sending: tags must disambiguate.
      std::vector<float> a(1), b(1);
      comm.recv(0, 2, a);
      comm.recv(0, 1, b);
      EXPECT_FLOAT_EQ(a[0], 2.0f);
      EXPECT_FLOAT_EQ(b[0], 1.0f);
    }
  });
}

TEST(Communicator, MessagesWithSameTagStayOrdered) {
  par::World world(2);
  world.run([](par::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i)
        comm.send(1, 3, std::vector<float>{static_cast<float>(i)});
    } else {
      std::vector<float> got(1);
      for (int i = 0; i < 10; ++i) {
        comm.recv(0, 3, got);
        EXPECT_FLOAT_EQ(got[0], static_cast<float>(i));
      }
    }
  });
}

TEST(Communicator, AllreduceSumsAcrossRanks) {
  par::World world(4);
  world.run([](par::Comm& comm) {
    std::vector<float> x{static_cast<float>(comm.rank() + 1), 10.0f};
    comm.allreduce_sum(x);
    EXPECT_FLOAT_EQ(x[0], 1 + 2 + 3 + 4);
    EXPECT_FLOAT_EQ(x[1], 40.0f);
  });
}

TEST(Communicator, RepeatedCollectivesStayConsistent) {
  // Regression guard for the shared-buffer collective implementation:
  // many back-to-back collectives must not bleed into each other.
  par::World world(4);
  world.run([](par::Comm& comm) {
    for (int round = 0; round < 25; ++round) {
      std::vector<float> x{static_cast<float>(comm.rank() + round)};
      comm.allreduce_sum(x);
      ASSERT_FLOAT_EQ(x[0], static_cast<float>(6 + 4 * round));
    }
  });
}

TEST(Communicator, ExceptionsPropagateToCaller) {
  par::World world(2);
  EXPECT_THROW(world.run([](par::Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("rank 1 failed");
    // rank 0 returns without collectives: a rank that throws never
    // reaches a barrier, so surviving ranks must not wait on one.
  }),
               std::runtime_error);
}

TEST(Communicator, ThrowingRankWakesSiblingsBlockedInRecvAndCollectives) {
  // Rank 0 fails while rank 1 waits in recv for a message rank 0 never
  // sends and rank 2 waits in an allreduce no one else joins.  The abort
  // must wake both with CommAborted, and run() must rethrow rank 0's
  // error, not the collateral CommAborted.  The run is guarded so a
  // regression fails the test instead of hanging the suite.
  struct State {
    par::World world{3};
    std::atomic<int> woken{0};
  };
  auto state = std::make_shared<State>();
  auto run = std::async(std::launch::async, [state] {
    state->world.run([&](par::Comm& comm) {
      try {
        if (comm.rank() == 0) {
          // Give the siblings time to block before the failure.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw std::runtime_error("rank 0 failed");
        }
        std::vector<float> x(1, 1.0f);
        if (comm.rank() == 1) {
          comm.recv(0, /*tag=*/9, x);
        } else {
          comm.allreduce_sum(x);
        }
      } catch (const par::CommAborted&) {
        state->woken.fetch_add(1);
        throw;
      }
    });
  });
  if (run.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    // Leak the future: its destructor would wait on the hung run.
    new std::future<void>(std::move(run));
    FAIL() << "a rank stayed blocked after its sibling threw";
  }
  try {
    run.get();
    FAIL() << "run() returned although rank 0 threw";
  } catch (const par::CommAborted&) {
    FAIL() << "run() rethrew the collateral CommAborted, not the root cause";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 failed");
  }
  EXPECT_EQ(state->woken.load(), 2);
}

TEST(Communicator, AbortedRunLeavesNothingForTheNextRun) {
  // Run 1 aborts with a message still queued for the failed rank; run 2
  // on the same World must receive only what run 2 sent.
  par::World world(2);
  EXPECT_THROW(world.run([](par::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/5, std::vector<float>{111.0f});
    } else {
      throw std::runtime_error("rank 1 failed before its recv");
    }
  }),
               std::runtime_error);
  std::vector<float> got(1, 0.0f);
  world.run([&](par::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, std::vector<float>{222.0f});
    } else {
      comm.recv(0, 5, got);
    }
  });
  EXPECT_EQ(got[0], 222.0f);
}

TEST(Decomposition, TilesPartitionTheDomain) {
  const int nx = 37, ny = 23, px = 3, py = 2;
  std::vector<int> owner(static_cast<size_t>(nx) * ny, -1);
  for (int r = 0; r < px * py; ++r) {
    auto t = par::make_tile(r, px, py, nx, ny, 1);
    EXPECT_EQ(t.cx + t.cy * px, r);
    for (int y = t.y0; y < t.y1; ++y)
      for (int x = t.x0; x < t.x1; ++x) {
        auto& o = owner[static_cast<size_t>(y) * nx + x];
        EXPECT_EQ(o, -1) << "cell owned twice";
        o = r;
      }
  }
  for (int v : owner) EXPECT_NE(v, -1);
}

TEST(Decomposition, NeighborsAtEdgesAreMinusOne) {
  auto t = par::make_tile(0, 2, 2, 10, 10, 1);
  EXPECT_EQ(t.neighbor(-1, 0), -1);
  EXPECT_EQ(t.neighbor(0, -1), -1);
  EXPECT_EQ(t.neighbor(1, 0), 1);
  EXPECT_EQ(t.neighbor(0, 1), 2);
}

TEST(Decomposition, HaloExchangeFillsGhosts) {
  // 2 ranks side by side in x; each fills its interior with its rank id
  // and after exchange must see the neighbour's id in its ghost column.
  par::World world(2);
  world.run([](par::Comm& comm) {
    auto tile = par::make_tile(comm.rank(), 2, 1, 8, 4, 1);
    std::vector<float> field(
        static_cast<size_t>(tile.nx_padded()) * tile.ny_padded(),
        static_cast<float>(comm.rank()));
    par::exchange_halo(comm, tile, field);
    const int ghost_x = comm.rank() == 0 ? tile.nx_local() : -1;
    const int other = 1 - comm.rank();
    for (int iy = 0; iy < tile.ny_local(); ++iy)
      EXPECT_FLOAT_EQ(field[tile.padded_index(ghost_x, iy)],
                      static_cast<float>(other));
    EXPECT_GT(comm.bytes_sent(), 0u);
  });
}

TEST(Decomposition, RejectsInvalidConfigurations) {
  EXPECT_THROW(par::make_tile(4, 2, 2, 10, 10, 1),
               coastal::util::CheckError);
  EXPECT_THROW(par::make_tile(0, 4, 1, 2, 10, 1),
               coastal::util::CheckError);
}
