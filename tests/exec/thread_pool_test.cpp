#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "exec/trial_runner.hpp"

namespace coreda::exec {
namespace {

/// The process's mapped address space (VmSize) in bytes; 0 if unreadable.
std::size_t mapped_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmSize:", 7) == 0) {
      kib = std::strtoull(line + 7, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  ThreadPool pool(4);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.shutdown();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingWork) {
  // Queue far more work than the workers can start before shutdown() is
  // called; graceful shutdown must still run every queued task.
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      ++counter;
    });
  }
  pool.shutdown();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.submit([] {});
  pool.shutdown();
  pool.shutdown();  // must not hang or crash
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorJoinsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // ~ThreadPool == shutdown()
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPoolTest, HardwareWorkersIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_workers(), 1u);
}

/// Death-test body: pins the process to the first CPU it may run on, then
/// exits 0 when hardware_workers() and a hardware-sized TrialRunner both
/// count that one CPU, 1 when either counts more.
void count_workers_pinned_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) std::_Exit(2);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &allowed)) ++first;
  if (first == CPU_SETSIZE) std::_Exit(3);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) std::_Exit(4);
  const bool counts_one =
      ThreadPool::hardware_workers() == 1 && TrialRunner(0).jobs() == 1;
  std::_Exit(counts_one ? 0 : 1);
}

// A cpuset-limited process starts no more workers than it may run: the
// worker count follows the affinity mask, not the machine's CPU count.
// The pin happens in a re-executed child, so this process keeps its mask.
TEST(ThreadPoolDeathTest, HardwareWorkersFollowTheAffinityMask) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(count_workers_pinned_to_one_cpu(), ::testing::ExitedWithCode(0),
              "");
}

/// Death-test body: limits the address space to about two more thread
/// stacks, then builds a pool of sixteen workers. Exits 0 when the
/// constructor rethrows the failed start and 1 when every worker started.
/// A pool that destroys its started workers joinable calls std::terminate,
/// which can hang under the limit, so the alarm bounds that failure.
void start_pool_under_address_limit() {
  alarm(20);
  pthread_attr_t attr;
  std::size_t stack = 0;
  if (pthread_getattr_default_np(&attr) != 0 ||
      pthread_attr_getstacksize(&attr, &stack) != 0 || stack == 0 ||
      mapped_bytes() == 0) {
    std::_Exit(2);
  }
  const rlim_t limit = mapped_bytes() + 2 * stack + stack / 2;
  const rlimit as{limit, limit};
  if (setrlimit(RLIMIT_AS, &as) != 0) std::_Exit(3);
  try {
    ThreadPool pool(16);
  } catch (const std::system_error&) {
    std::_Exit(0);
  }
  std::_Exit(1);
}

// A later worker of sixteen fails to start under the limit. The constructor
// must join the workers already running and rethrow; destroying them
// joinable would call std::terminate. The body runs in a re-executed child,
// so the limit and any thread stacks cached by earlier tests stay out of
// the test process.
TEST(ThreadPoolDeathTest, FailedThreadStartJoinsStartedWorkers) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow mappings defeat an address-space limit";
#endif
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(start_pool_under_address_limit(), ::testing::ExitedWithCode(0),
              "");
}

}  // namespace
}  // namespace coreda::exec
