// Exact (bitwise, not within ULPs) comparison of engine summaries, for
// the tests that pin a fast path or a replay to a reference.

#ifndef RTQ_TESTS_SUMMARY_TESTING_H_
#define RTQ_TESTS_SUMMARY_TESTING_H_

#include <gtest/gtest.h>

#include <string>

#include "engine/metrics.h"

namespace rtq::testing {

inline void ExpectSameClass(const engine::ClassSummary& a,
                            const engine::ClassSummary& b) {
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.miss_ratio, b.miss_ratio);
  EXPECT_EQ(a.avg_wait, b.avg_wait);
  EXPECT_EQ(a.avg_exec, b.avg_exec);
  EXPECT_EQ(a.avg_response, b.avg_response);
  EXPECT_EQ(a.avg_fluctuations, b.avg_fluctuations);
}

/// Every SystemSummary field, overall and per class.
inline void ExpectSameSummary(const engine::SystemSummary& a,
                              const engine::SystemSummary& b) {
  ExpectSameClass(a.overall, b.overall);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (size_t c = 0; c < a.per_class.size(); ++c) {
    SCOPED_TRACE("class " + std::to_string(c));
    ExpectSameClass(a.per_class[c], b.per_class[c]);
  }
  EXPECT_EQ(a.avg_mpl, b.avg_mpl);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.avg_disk_utilization, b.avg_disk_utilization);
  EXPECT_EQ(a.max_disk_utilization, b.max_disk_utilization);
  EXPECT_EQ(a.miss_ratio_ci.mean, b.miss_ratio_ci.mean);
  EXPECT_EQ(a.miss_ratio_ci.half_width, b.miss_ratio_ci.half_width);
  EXPECT_EQ(a.miss_ratio_ci.num_batches, b.miss_ratio_ci.num_batches);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.simulated_time, b.simulated_time);
}

}  // namespace rtq::testing

#endif  // RTQ_TESTS_SUMMARY_TESTING_H_
