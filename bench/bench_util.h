// Shared plumbing for the experiment binaries: build RunSpecs, run them
// through the parallel pool, format rows, and emit CSV + BENCH_*.json
// under results/.

#ifndef RTQ_BENCH_BENCH_UTIL_H_
#define RTQ_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/rtdbs.h"
#include "harness/bench_json.h"
#include "harness/csv.h"
#include "harness/paper_experiments.h"
#include "harness/runner.h"
#include "harness/table_printer.h"

namespace rtq::bench {

inline std::string F(double v, int p) {
  return harness::TablePrinter::Fixed(v, p);
}
inline std::string Pct(double v) {
  return harness::TablePrinter::Percent(v, 1);
}

/// The rule line above and below the experiment banner.
inline constexpr char kBannerRule[] =
    "================================================================";

/// Prints the standard experiment banner.
inline void Banner(const char* title, const char* paper_ref) {
  std::printf("%s\n", kBannerRule);
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("simulated duration per point: %.1f hours "
              "(override with RTQ_SIM_HOURS)\n",
              harness::ExperimentDuration() / 3600.0);
  std::printf("parallel jobs: %d (override with RTQ_BENCH_JOBS)\n",
              harness::BenchJobs());
  std::printf("%s\n\n", kBannerRule);
}

/// Wall-clock stopwatch around a sweep.
inline std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(Now() - start).count();
}

/// Writes a CSV, reporting failures to stderr.
inline void WriteCsv(const harness::CsvWriter& csv, const std::string& path) {
  Status st = csv.WriteFile(path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return;
  }
  std::printf("\nseries written to %s\n", path.c_str());
}

/// Writes the BENCH_<driver>.json trajectory, reporting failures.
inline void WriteBenchJson(const harness::BenchJsonEmitter& json,
                           double total_wall_seconds) {
  Status st = json.WriteFile(total_wall_seconds);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return;
  }
  std::printf("trajectory written to %s (%.1fs total)\n", json.path().c_str(),
              total_wall_seconds);
}

}  // namespace rtq::bench

#endif  // RTQ_BENCH_BENCH_UTIL_H_
