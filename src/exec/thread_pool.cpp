#include "exec/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace coreda::exec {

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t count = std::max<std::size_t>(workers, 1);
  workers_.reserve(count);
  try {
    for (std::size_t i = 0; i < count; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A thread failed to start: the ones already running wait on the
    // condvar, and destroying them while joinable would std::terminate.
    shutdown();
    throw;
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit: pool is shut down");
    }
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // A second caller must still not return before the workers are gone,
      // but joining them twice is the first caller's job; the destructor is
      // the only double-call site in practice and runs after the first
      // shutdown() completed.
      return;
    }
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t ThreadPool::hardware_workers() noexcept {
#if defined(__linux__)
  // The CPUs this process may run on: a cpuset-limited container reports
  // its limit here, while hardware_concurrency counts the whole machine.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int allowed = CPU_COUNT(&set);
    if (allowed > 0) return static_cast<std::size_t>(allowed);
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace coreda::exec
