#include "engine/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/policy_registry.h"
#include "serve/serve_session.h"
#include "stats/running_stats.h"
#include "summary_testing.h"

namespace rtq::engine {
namespace {

CompletionRecord Rec(QueryId id, int32_t cls, bool missed, SimTime finish,
                     double wait, double exec, int64_t fluct = 0) {
  CompletionRecord r;
  r.info.id = id;
  r.info.query_class = cls;
  r.info.missed = missed;
  r.info.finish = finish;
  r.info.admission_wait = wait;
  r.info.execution_time = exec;
  r.mem_fluctuations = fluct;
  return r;
}

TEST(Metrics, SummarizeAggregates) {
  MetricsCollector m(10, 2);
  m.Record(Rec(1, 0, false, 10.0, 2.0, 8.0, 1));
  m.Record(Rec(2, 0, true, 20.0, 4.0, 10.0, 3));
  m.Record(Rec(3, 1, false, 30.0, 6.0, 12.0, 5));

  ClassSummary overall;
  std::vector<ClassSummary> per_class;
  m.Summarize(&overall, &per_class);

  EXPECT_EQ(overall.completions, 3);
  EXPECT_EQ(overall.misses, 1);
  EXPECT_NEAR(overall.miss_ratio, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(overall.avg_wait, 4.0, 1e-12);
  EXPECT_NEAR(overall.avg_exec, 10.0, 1e-12);
  EXPECT_NEAR(overall.avg_response, 14.0, 1e-12);
  EXPECT_NEAR(overall.avg_fluctuations, 3.0, 1e-12);

  ASSERT_EQ(per_class.size(), 2u);
  EXPECT_EQ(per_class[0].completions, 2);
  EXPECT_EQ(per_class[0].misses, 1);
  EXPECT_EQ(per_class[1].completions, 1);
  EXPECT_EQ(per_class[1].misses, 0);
}

TEST(Metrics, EmptySummarize) {
  MetricsCollector m(10, 1);
  ClassSummary overall;
  std::vector<ClassSummary> per_class;
  m.Summarize(&overall, &per_class);
  EXPECT_EQ(overall.completions, 0);
  EXPECT_DOUBLE_EQ(overall.miss_ratio, 0.0);
}

TEST(Metrics, WindowSummaryFiltersByTimeAndClass) {
  MetricsCollector m(10, 1);
  m.Record(Rec(1, 0, true, 5.0, 0, 1));
  m.Record(Rec(2, 0, false, 15.0, 0, 1));
  m.Record(Rec(3, 1, true, 16.0, 0, 1));
  m.Record(Rec(4, 0, false, 25.0, 0, 1));

  ClassSummary w = MetricsCollector::WindowSummary(m.records(), 10.0, 20.0,
                                                   /*query_class=*/-1);
  EXPECT_EQ(w.completions, 2);
  EXPECT_EQ(w.misses, 1);

  ClassSummary c0 = MetricsCollector::WindowSummary(m.records(), 0.0, 30.0,
                                                    /*query_class=*/0);
  EXPECT_EQ(c0.completions, 3);
  EXPECT_EQ(c0.misses, 1);
}

TEST(Metrics, MplTimeAverage) {
  MetricsCollector m(10, 1);
  m.UpdateMpl(0.0, 0);
  m.UpdateMpl(10.0, 4);   // 0 for [0,10)
  m.UpdateMpl(30.0, 2);   // 4 for [10,30)
  // 2 for [30,40): average = (0*10 + 4*20 + 2*10) / 40 = 2.5.
  EXPECT_NEAR(m.AverageMpl(40.0), 2.5, 1e-12);
}

TEST(Metrics, MissCiReflectsStream) {
  MetricsCollector m(5, 1);
  for (int i = 0; i < 100; ++i) {
    m.Record(Rec(static_cast<QueryId>(i), 0, i % 4 == 0, i, 0, 1));
  }
  auto ci = m.MissRatioCi();
  EXPECT_EQ(ci.num_batches, 20);
  EXPECT_NEAR(ci.mean, 0.25, 0.05);
  EXPECT_GT(ci.half_width, 0.0);
}

TEST(Metrics, MplSamplesAccumulate) {
  MetricsCollector m(10, 1);
  m.SampleMpl(60.0, 3);
  m.SampleMpl(120.0, 5);
  ASSERT_EQ(m.mpl_samples().size(), 2u);
  EXPECT_DOUBLE_EQ(m.mpl_samples()[1].time, 120.0);
  EXPECT_DOUBLE_EQ(m.mpl_samples()[1].value, 5.0);
}

TEST(Metrics, RecordsOutsideClassRangeFoldIntoOverallOnly) {
  MetricsCollector m(10, 2);
  m.Record(Rec(1, 5, false, 1.0, 0, 1));  // class 5 but only 2 tracked
  ClassSummary overall;
  std::vector<ClassSummary> per_class;
  m.Summarize(&overall, &per_class);
  EXPECT_EQ(overall.completions, 1);
  EXPECT_EQ(per_class[0].completions, 0);
  EXPECT_EQ(per_class[1].completions, 0);
}

// The from-scratch fold that Summarize's running accumulators replace:
// every record, in order, through fresh accumulators. Kept independent of
// MetricsCollector's own fold so it can serve as the reference.
ClassSummary ReferenceFold(const std::vector<CompletionRecord>& records,
                           int32_t query_class /* -1 = all */) {
  ClassSummary s;
  stats::RunningStats wait, exec, resp, fluct;
  for (const CompletionRecord& r : records) {
    if (query_class >= 0 && r.info.query_class != query_class) continue;
    ++s.completions;
    if (r.info.missed) ++s.misses;
    wait.Add(r.info.admission_wait);
    exec.Add(r.info.execution_time);
    resp.Add(r.info.admission_wait + r.info.execution_time);
    fluct.Add(static_cast<double>(r.mem_fluctuations));
  }
  if (s.completions > 0) {
    s.miss_ratio =
        static_cast<double>(s.misses) / static_cast<double>(s.completions);
  }
  s.avg_wait = wait.mean();
  s.avg_exec = exec.mean();
  s.avg_response = resp.mean();
  s.avg_fluctuations = fluct.mean();
  return s;
}

// Summarize folds each record as it is stored; at every checkpoint it
// must equal, bit for bit, a from-scratch fold over records() — overall
// and per class, for every registered policy, on a multi-class and a
// scenario workload, unsharded and on a 4-shard cluster.
TEST(MetricsFold, SummarizeEqualsFromScratchFold) {
  for (const std::string& policy : core::PolicyRegistry::Global().Names()) {
    for (const char* workload : {"multiclass:rate=0.1", "scenario:diurnal"}) {
      for (int32_t shards : {1, 4}) {
        SCOPED_TRACE(policy + " / " + workload + " / shards=" +
                     std::to_string(shards));
        serve::SessionSpec spec;
        spec.workload = workload;
        spec.policy = policy;
        spec.shards = shards;
        auto session = serve::ServeSession::Create(spec);
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        ShardedRtdbs& cluster = session.value()->engine();
        int64_t total = 0;
        for (int checkpoint = 0; checkpoint < 3; ++checkpoint) {
          session.value()->RunEvents(20000);
          total = 0;
          for (int32_t s = 0; s < shards; ++s) {
            const auto& records = cluster.shard(s).metrics().records();
            total += static_cast<int64_t>(records.size());
            const SystemSummary got = cluster.SummarizeShard(s);
            testing::ExpectSameClass(got.overall, ReferenceFold(records, -1));
            int32_t c = 0;
            for (const ClassSummary& cls : got.per_class) {
              testing::ExpectSameClass(cls, ReferenceFold(records, c++));
            }
          }
          EXPECT_EQ(cluster.Summarize().overall.completions, total);
        }
        EXPECT_GT(total, 0);
      }
    }
  }
}

}  // namespace
}  // namespace rtq::engine
