#include "engine/metrics.h"

#include "common/check.h"

namespace rtq::engine {

MetricsCollector::MetricsCollector(int64_t miss_ci_batch, int32_t num_classes)
    : per_class_(static_cast<size_t>(num_classes)),
      miss_batches_(miss_ci_batch) {}

void MetricsCollector::Record(const CompletionRecord& record) {
  records_.push_back(record);
  miss_batches_.Add(record.info.missed ? 1.0 : 0.0);
  overall_.Fold(record);
  const int32_t c = record.info.query_class;
  if (c >= 0 && static_cast<size_t>(c) < per_class_.size()) {
    per_class_[static_cast<size_t>(c)].Fold(record);
  }
}

void MetricsCollector::UpdateMpl(SimTime now, int64_t mpl) {
  if (!mpl_started_) {
    mpl_.Start(now, static_cast<double>(mpl));
    mpl_started_ = true;
    return;
  }
  mpl_.Update(now, static_cast<double>(mpl));
}

void MetricsCollector::SampleMpl(SimTime now, int64_t mpl) {
  mpl_samples_.push_back(TimeSample{now, static_cast<double>(mpl)});
}

double MetricsCollector::AverageMpl(SimTime now) const {
  if (!mpl_started_) return 0.0;
  return mpl_.Average(now);
}

double MetricsCollector::MplIntegral(SimTime now) const {
  if (!mpl_started_) return 0.0;
  return mpl_.Integral(now);
}

stats::ConfidenceInterval MetricsCollector::MissRatioCi() const {
  return miss_batches_.Interval(0.90);
}

void MetricsCollector::Accumulator::Fold(const CompletionRecord& r) {
  ++counts.completions;
  if (r.info.missed) ++counts.misses;
  wait.Add(r.info.admission_wait);
  exec.Add(r.info.execution_time);
  resp.Add(r.info.admission_wait + r.info.execution_time);
  fluct.Add(static_cast<double>(r.mem_fluctuations));
}

ClassSummary MetricsCollector::Accumulator::Finish() const {
  ClassSummary s = counts;
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

void MetricsCollector::Summarize(ClassSummary* overall,
                                 std::vector<ClassSummary>* per_class) const {
  RTQ_CHECK(overall != nullptr && per_class != nullptr);
  *overall = overall_.Finish();
  per_class->resize(per_class_.size());
  for (size_t c = 0; c < per_class_.size(); ++c) {
    (*per_class)[c] = per_class_[c].Finish();
  }
}

ClassSummary MetricsCollector::WindowSummary(
    const std::vector<CompletionRecord>& records, SimTime from, SimTime to,
    int32_t query_class) {
  Accumulator acc;
  for (const CompletionRecord& r : records) {
    if (r.info.finish < from || r.info.finish >= to) continue;
    if (query_class >= 0 && r.info.query_class != query_class) continue;
    acc.Fold(r);
  }
  return acc.Finish();
}

}  // namespace rtq::engine
