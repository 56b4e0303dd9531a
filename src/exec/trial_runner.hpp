#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "exec/thread_pool.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace coreda::exec {

/// Seed for trial `index` of an experiment seeded with `base_seed`.
///
/// SplitMix64 finalization over the (base, index) pair: statistically
/// independent streams for neighboring indices, and — crucially — a pure
/// function of the pair, so trial i draws the same stream whether it runs
/// first, last, serially, or on any worker thread.
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t index) noexcept;

/// Everything a trial body receives: its index (for configuration lookup)
/// and a private Rng derived from (base_seed, index).
struct TrialContext {
  std::size_t index = 0;
  util::Rng rng;
};

/// Fans independent experiment trials across a worker pool with results that
/// are byte-identical at any job count.
///
/// Each trial gets its own TrialContext; the body must build its own
/// Scheduler / world / pipeline objects from it and may only read shared
/// state (e.g. a pre-generated training set passed by const reference).
/// Results land in a pre-sized vector indexed by trial, so the reduction —
/// and any table printed from it — is independent of completion order.
///
/// jobs == 1 bypasses the pool entirely (pure serial loop, the reference
/// behavior the parallel path is tested against); jobs == 0 means
/// ThreadPool::hardware_workers(), capped at kMaxJobs. The pool is created
/// lazily on the first parallel run() and reused across calls.
class TrialRunner {
 public:
  /// The most jobs a runner accepts; every committed record uses <= 4.
  static constexpr std::size_t kMaxJobs = 256;

  /// Throws std::invalid_argument above kMaxJobs, before any thread starts.
  explicit TrialRunner(std::size_t jobs = 0);

  std::size_t jobs() const noexcept { return jobs_; }

  /// Runs `fn(TrialContext&)` for trial indices [0, count) and returns the
  /// results in index order. If any trial throws, every trial still runs to
  /// completion, then the exception of the lowest-index failing trial is
  /// rethrown (deterministic error reporting). The result type must be
  /// default-constructible; `fn` is invoked concurrently from pool threads
  /// when jobs > 1.
  template <typename Fn>
  auto run(std::size_t count, std::uint64_t base_seed, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, TrialContext&>> {
    using Result = std::invoke_result_t<Fn&, TrialContext&>;
    std::vector<Result> results(count);
    if (count == 0) return results;
    if (jobs_ == 1 || count == 1) {
      for (std::size_t i = 0; i < count; ++i) {
        TrialContext ctx{i, util::Rng(trial_seed(base_seed, i))};
        results[i] = fn(ctx);
      }
      return results;
    }

    std::vector<std::exception_ptr> errors(count);
    std::mutex done_mutex;
    std::condition_variable done;
    std::size_t remaining = count;
    ThreadPool& workers = pool();
    for (std::size_t i = 0; i < count; ++i) {
      workers.submit([&, i] {
        try {
          TrialContext ctx{i, util::Rng(trial_seed(base_seed, i))};
          results[i] = fn(ctx);
        } catch (...) {
          errors[i] = std::current_exception();
        }
        // Notify under the lock: the waiter cannot wake and tear down the
        // condvar while we still hold it, so the notify never dangles.
        std::lock_guard<std::mutex> lock(done_mutex);
        if (--remaining == 0) done.notify_one();
      });
    }
    {
      std::unique_lock<std::mutex> lock(done_mutex);
      done.wait(lock, [&] { return remaining == 0; });
    }
    for (std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    return results;
  }

 private:
  ThreadPool& pool() {
    if (!pool_) pool_ = std::make_unique<ThreadPool>(jobs_);
    return *pool_;
  }

  std::size_t jobs_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Reads `--jobs=N` (0 or absent ⇒ hardware concurrency, capped at
/// TrialRunner::kMaxJobs) for the bench CLIs; throws std::invalid_argument
/// for a negative N or one above the cap.
std::size_t jobs_from_flags(const util::Flags& flags);

/// Appends one JSON-lines timing record to `path` — the raw material of
/// BENCH_parallel.json / BENCH_fleet.json. Timing goes to a side file,
/// never stdout, so bench tables stay byte-identical across job counts.
/// Every record carries `hardware_concurrency` so a jobs-vs-cores mismatch
/// (the usual cause of parallel slowdown) is visible in the data itself.
/// `extra` is spliced verbatim into the object as additional fields, e.g.
/// `"episodes_per_sec": 1234.5` (empty = none). No-op when `path` is empty.
void append_timing_record(const std::string& path, const std::string& bench,
                          std::size_t jobs, std::size_t trials, double seconds,
                          const std::string& extra = "");

/// Monotonic wall-clock stopwatch for the timing records.
class Stopwatch {
 public:
  Stopwatch();
  /// Seconds elapsed since construction.
  double seconds() const;

 private:
  std::uint64_t start_ns_;
};

}  // namespace coreda::exec
