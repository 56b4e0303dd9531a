#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace coreda::exec {

/// Fixed-size worker pool with a mutex/condvar task queue.
///
/// The pool exists to fan out *independent trials* (each with its own
/// Scheduler, Rng, and pipeline objects — see TrialRunner); tasks must not
/// touch shared mutable state. shutdown() is graceful: queued tasks still
/// run to completion before the workers join. Tasks are executed in FIFO
/// submission order per worker pick-up, but completion order is
/// host-dependent — anything order-sensitive must index into pre-sized
/// output storage rather than append.
class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1). If one fails to start, the
  /// threads already started are joined and the error is rethrown.
  explicit ThreadPool(std::size_t workers);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Equivalent to shutdown().
  ~ThreadPool();

  /// Enqueues a task. Throws std::runtime_error after shutdown().
  void submit(std::function<void()> task);

  /// Drains the queue (already-submitted tasks run to completion), then
  /// joins all workers. Idempotent; safe to call concurrently with running
  /// tasks but not from inside one.
  void shutdown();

  std::size_t size() const noexcept { return workers_.size(); }

  /// The CPUs this process may run on (its affinity mask, so a
  /// cpuset-limited container counts only its own), at least 1. Falls back
  /// to std::thread::hardware_concurrency where the mask cannot be read.
  static std::size_t hardware_workers() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  bool stopping_ = false;
};

}  // namespace coreda::exec
