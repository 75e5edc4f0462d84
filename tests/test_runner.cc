#include "harness/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/paper_experiments.h"

namespace rtq::harness {
namespace {

/// Restores (or clears) an environment variable on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

std::vector<RunSpec> BaselineSpecs(int count) {
  engine::PolicyConfig pmm{"pmm"};
  std::vector<RunSpec> specs;
  for (int i = 0; i < count; ++i) {
    RunSpec spec;
    spec.label = "spec-" + std::to_string(i);
    spec.config = BaselineConfig(0.05 + 0.01 * i, pmm,
                                 /*seed=*/100 + static_cast<uint64_t>(i));
    spec.duration = 120.0;  // short: determinism, not steady state
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(BenchJobs, EnvOverrideWins) {
  ScopedEnv env("RTQ_BENCH_JOBS", "3");
  EXPECT_EQ(BenchJobs(), 3);
}

TEST(BenchJobs, InvalidOrUnsetFallsBackToHardware) {
  {
    ScopedEnv env("RTQ_BENCH_JOBS", "0");
    EXPECT_GE(BenchJobs(), 1);
  }
  {
    ScopedEnv env("RTQ_BENCH_JOBS", "bogus");
    EXPECT_GE(BenchJobs(), 1);
  }
  {
    ScopedEnv env("RTQ_BENCH_JOBS", nullptr);
    EXPECT_GE(BenchJobs(), 1);
  }
}

TEST(RunPool, EmptySpecs) {
  EXPECT_TRUE(RunPool({}, 4).empty());
}

TEST(RunPool, PreservesSubmissionOrder) {
  // Jobs finish in roughly reverse submission order (earlier jobs sleep
  // longer); the result vector must still follow submission order.
  const size_t n = 8;
  std::vector<RunSpec> specs(n);
  for (size_t i = 0; i < n; ++i) specs[i].label = "job-" + std::to_string(i);

  auto fn = [&](const RunSpec& spec, size_t index) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(5 * (n - index)));
    RunResult result;
    result.label = spec.label;
    result.summary.overall.completions = static_cast<int64_t>(index);
    return result;
  };

  std::vector<RunResult> results = RunPool(specs, 4, fn);
  ASSERT_EQ(results.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(results[i].label, specs[i].label);
    EXPECT_EQ(results[i].summary.overall.completions,
              static_cast<int64_t>(i));
  }
}

TEST(RunPool, ForwardsFirstFailureBySubmissionIndex) {
  std::vector<RunSpec> specs(6);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].label = std::to_string(i);
  }
  std::atomic<int> ran{0};
  auto fn = [&](const RunSpec&, size_t index) -> RunResult {
    ran.fetch_add(1);
    if (index == 2 || index == 4) {
      throw std::runtime_error("boom " + std::to_string(index));
    }
    return RunResult{};
  };

  try {
    RunPool(specs, 3, fn);
    FAIL() << "expected RunPool to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");
  }
  // A failure does not cancel the remaining jobs; the pool drains fully
  // before rethrowing, so no worker outlives the call.
  EXPECT_EQ(ran.load(), 6);
}

TEST(RunPool, SequentialAndParallelRunsAreIdentical) {
  // Fixed seeds + independent single-threaded simulations: the worker
  // count must not change any per-point summary bit.
  std::vector<RunSpec> specs = BaselineSpecs(3);
  std::vector<RunResult> seq = RunPool(specs, 1);
  std::vector<RunResult> par = RunPool(specs, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].label, par[i].label);
    const engine::SystemSummary& a = seq[i].summary;
    const engine::SystemSummary& b = par[i].summary;
    EXPECT_EQ(a.overall.completions, b.overall.completions);
    EXPECT_EQ(a.overall.misses, b.overall.misses);
    EXPECT_EQ(a.events_dispatched, b.events_dispatched);
    EXPECT_DOUBLE_EQ(a.overall.miss_ratio, b.overall.miss_ratio);
    EXPECT_DOUBLE_EQ(a.overall.avg_wait, b.overall.avg_wait);
    EXPECT_DOUBLE_EQ(a.overall.avg_exec, b.overall.avg_exec);
    EXPECT_DOUBLE_EQ(a.overall.avg_response, b.overall.avg_response);
    EXPECT_DOUBLE_EQ(a.avg_mpl, b.avg_mpl);
    EXPECT_DOUBLE_EQ(a.avg_disk_utilization, b.avg_disk_utilization);
    EXPECT_EQ(seq[i].pmm_trace.size(), par[i].pmm_trace.size());
  }
}

TEST(RunPool, DefaultJobFillsResultFields) {
  std::vector<RunSpec> specs = BaselineSpecs(1);
  std::vector<RunResult> results = RunPool(specs, 2);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].label, "spec-0");
  // The config echo survives the pool round-trip.
  EXPECT_EQ(results[0].config.policy.spec, "pmm");
  EXPECT_EQ(results[0].config.seed, 100u);
  EXPECT_GT(results[0].summary.simulated_time, 0.0);
  EXPECT_GT(results[0].summary.events_dispatched, 0u);
  EXPECT_GT(results[0].wall_seconds, 0.0);
}

TEST(RunPool, SpecDurationOverridesExperimentDuration) {
  // Guard the satellite requirement: fractional RTQ_SIM_HOURS works and
  // a per-spec duration wins over the environment.
  ScopedEnv env("RTQ_SIM_HOURS", "0.1");
  EXPECT_DOUBLE_EQ(ExperimentDuration(), 360.0);

  std::vector<RunSpec> specs = BaselineSpecs(1);
  specs[0].duration = 60.0;
  std::vector<RunResult> results = RunPool(specs, 1);
  EXPECT_DOUBLE_EQ(results[0].summary.simulated_time, 60.0);

  specs[0].duration = 0.0;  // fall back to RTQ_SIM_HOURS
  results = RunPool(specs, 1);
  EXPECT_DOUBLE_EQ(results[0].summary.simulated_time, 360.0);
}

}  // namespace
}  // namespace rtq::harness
