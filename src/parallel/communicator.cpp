#include "parallel/communicator.hpp"

#include <algorithm>
#include <exception>
#include <thread>

namespace coastal::par {


void Comm::send(int dest, int tag, std::span<const float> data) {
  COASTAL_CHECK_MSG(dest >= 0 && dest < world_->size(),
                    "send: bad destination rank " << dest);
  bytes_sent_ += data.size() * sizeof(float);
  ++messages_sent_;
  world_->push_message(dest, rank_, tag, data);
}

void Comm::recv(int source, int tag, std::span<float> out) {
  COASTAL_CHECK_MSG(source >= 0 && source < world_->size(),
                    "recv: bad source rank " << source);
  world_->pop_message(rank_, source, tag, out);
}

void Comm::allreduce_sum(std::span<float> data) {
  // Rank 0 resets the shared accumulator, everyone adds, everyone copies
  // back.  Three barriers — simple and correct; fine at in-process scale.
  // Accounting models ring-allreduce traffic: ~2 x payload per rank.
  bytes_sent_ += 2 * data.size() * sizeof(float);
  ++messages_sent_;
  if (rank_ == 0) {
    world_->reduce_buf_.assign(data.size(), 0.0f);
    world_->reduce_len_ = data.size();
  }
  world_->barrier_wait();
  COASTAL_CHECK_MSG(world_->reduce_len_ == data.size(),
                    "allreduce size mismatch across ranks");
  {
    std::lock_guard<std::mutex> lock(world_->reduce_mutex_);
    for (size_t i = 0; i < data.size(); ++i) world_->reduce_buf_[i] += data[i];
  }
  world_->barrier_wait();
  std::copy(world_->reduce_buf_.begin(), world_->reduce_buf_.end(),
            data.begin());
  world_->barrier_wait();
}

World::World(int size) : size_(size) {
  COASTAL_CHECK_MSG(size >= 1, "World needs at least one rank");
  mailboxes_.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void World::run(const std::function<void(Comm&)>& fn) {
  // Fresh epoch: clear the abort, the barrier count and every mailbox a
  // previous failed run left behind, so the World object is reusable and
  // no message of an aborted run is delivered to the next one.
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    aborted_.store(false, std::memory_order_release);
    barrier_count_ = 0;
  }
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mutex);
    box->slots.clear();
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(size_));
  std::mutex err_mutex;
  std::exception_ptr first_error;
  bool first_error_is_abort = false;
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(this, r);
      try {
        fn(comm);
      } catch (const CommAborted&) {
        // Collateral unwinding of a sibling's failure: only report it if
        // no root cause ever surfaces.
        std::lock_guard<std::mutex> lock(err_mutex);
        if (!first_error) {
          first_error = std::current_exception();
          first_error_is_abort = true;
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mutex);
          if (!first_error || first_error_is_abort) {
            first_error = std::current_exception();
            first_error_is_abort = false;
          }
        }
        abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void World::abort() {
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    aborted_.store(true, std::memory_order_release);
  }
  barrier_cv_.notify_all();
  // Lock each mailbox while notifying so a rank between its predicate
  // check and its wait cannot miss the wakeup.
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mutex);
    box->cv.notify_all();
  }
}

bool World::aborted() const {
  return aborted_.load(std::memory_order_acquire);
}

void World::barrier_wait() {
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  if (aborted_) throw CommAborted();
  const uint64_t gen = barrier_generation_;
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    lock.unlock();
    barrier_cv_.notify_all();
    return;
  }
  barrier_cv_.wait(lock,
                   [&] { return barrier_generation_ != gen || aborted_; });
  if (barrier_generation_ == gen) throw CommAborted();
}

void World::push_message(int dest, int source, int tag,
                         std::span<const float> data) {
  Mailbox& box = *mailboxes_[static_cast<size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.slots[{source, tag}].emplace(data.begin(), data.end());
  }
  box.cv.notify_all();
}

void World::pop_message(int self, int source, int tag, std::span<float> out) {
  Mailbox& box = *mailboxes_[static_cast<size_t>(self)];
  std::unique_lock<std::mutex> lock(box.mutex);
  const auto key = std::make_pair(source, tag);
  const auto ready = [&] {
    auto it = box.slots.find(key);
    return it != box.slots.end() && !it->second.empty();
  };
  box.cv.wait(lock, [&] { return ready() || aborted(); });
  if (!ready()) throw CommAborted();
  auto& q = box.slots[key];
  const std::vector<float> payload = std::move(q.front());
  q.pop();
  COASTAL_CHECK_MSG(payload.size() == out.size(),
                    "recv: message length " << payload.size() << " != buffer "
                                            << out.size());
  std::copy(payload.begin(), payload.end(), out.begin());
}

}  // namespace coastal::par
