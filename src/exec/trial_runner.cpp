#include "exec/trial_runner.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace coreda::exec {

std::uint64_t trial_seed(std::uint64_t base_seed,
                         std::uint64_t index) noexcept {
  // The golden-ratio step decorrelates index from base_seed before the
  // avalanche rounds.
  return util::mix64(base_seed + 0x9e3779b97f4a7c15ULL * index);
}

TrialRunner::TrialRunner(std::size_t jobs)
    : jobs_(jobs == 0
                ? std::min(ThreadPool::hardware_workers(), kMaxJobs)
                : jobs) {
  if (jobs_ > kMaxJobs) {
    throw std::invalid_argument("TrialRunner: " + std::to_string(jobs) +
                                " jobs exceed the ceiling of " +
                                std::to_string(kMaxJobs));
  }
}

std::size_t jobs_from_flags(const util::Flags& flags) {
  const std::int64_t jobs = flags.get_int("jobs", 0);
  if (jobs < 0 || static_cast<std::uint64_t>(jobs) > TrialRunner::kMaxJobs) {
    throw std::invalid_argument("--jobs must be in [0, " +
                                std::to_string(TrialRunner::kMaxJobs) +
                                "] (0 = hardware)");
  }
  return TrialRunner(static_cast<std::size_t>(jobs)).jobs();
}

void append_timing_record(const std::string& path, const std::string& bench,
                          std::size_t jobs, std::size_t trials, double seconds,
                          const std::string& extra) {
  if (path.empty()) return;
  std::ostringstream line;
  line << "{\"bench\": \"" << bench << "\", \"jobs\": " << jobs
       << ", \"hardware_concurrency\": " << ThreadPool::hardware_workers()
       << ", \"trials\": " << trials << ", \"seconds\": " << seconds
       << ", \"trials_per_sec\": "
       << (seconds > 0.0 ? static_cast<double>(trials) / seconds : 0.0);
  if (!extra.empty()) line << ", " << extra;
  line << "}\n";
  std::ofstream out(path, std::ios::app);
  out << line.str();
}

Stopwatch::Stopwatch()
    : start_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())) {}

double Stopwatch::seconds() const {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return static_cast<double>(now - start_ns_) * 1e-9;
}

}  // namespace coreda::exec
