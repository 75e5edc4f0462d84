#include "engine/sharded_rtdbs.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace rtq::engine {

namespace {

/// Completion-weighted merge of one shard's class summary into the
/// cluster aggregate.
void MergeClass(const ClassSummary& in, ClassSummary* out) {
  const double n0 = static_cast<double>(out->completions);
  const double n1 = static_cast<double>(in.completions);
  if (n0 + n1 > 0.0) {
    out->avg_wait = (out->avg_wait * n0 + in.avg_wait * n1) / (n0 + n1);
    out->avg_exec = (out->avg_exec * n0 + in.avg_exec * n1) / (n0 + n1);
    out->avg_response =
        (out->avg_response * n0 + in.avg_response * n1) / (n0 + n1);
    out->avg_fluctuations =
        (out->avg_fluctuations * n0 + in.avg_fluctuations * n1) / (n0 + n1);
  }
  out->completions += in.completions;
  out->misses += in.misses;
  out->miss_ratio = out->completions > 0
                        ? static_cast<double>(out->misses) /
                              static_cast<double>(out->completions)
                        : 0.0;
}

}  // namespace

StatusOr<std::unique_ptr<ShardedRtdbs>> ShardedRtdbs::Create(
    const SystemConfig& base, const ShardConfig& shards) {
  RTQ_RETURN_IF_ERROR(shards.Validate());
  auto placement =
      workload::ShardPlacement::Make(shards.placement, shards.num_shards);
  if (!placement.ok()) return placement.status();
  auto cap = core::ParseAdmissionSpec(shards.admission);
  if (!cap.ok()) return cap.status();

  std::unique_ptr<ShardedRtdbs> sys(new ShardedRtdbs());
  sys->shard_config_ = shards;
  sys->shard_config_.placement = placement.value().spec();
  sys->placement_ = std::make_unique<workload::ShardPlacement>(
      std::move(placement).value());
  if (cap.value() > 0) {
    sys->coordinator_ = std::make_unique<core::ShardCoordinator>(
        shards.num_shards, cap.value());
  }
  sys->shards_.reserve(static_cast<size_t>(shards.num_shards));
  sys->heads_.resize(static_cast<size_t>(shards.num_shards));
  for (int32_t s = 0; s < shards.num_shards; ++s) {
    SystemConfig cfg = base;
    cfg.shard.index = s;
    cfg.shard.count = shards.num_shards;
    cfg.shard.placement = sys->placement_.get();
    cfg.shard.coordinator = sys->coordinator_.get();
    auto shard = Rtdbs::Create(cfg);
    if (!shard.ok()) return shard.status();
    sys->shards_.push_back(std::move(shard).value());
  }
  return sys;
}

void ShardedRtdbs::Start() {
  if (started_) return;
  started_ = true;
  for (auto& shard : shards_) shard->Start();
}

void ShardedRtdbs::Peek(size_t s) {
  const sim::EventQueue& q = shards_[s]->simulator().queue();
  heads_[s].pending = !q.Empty();
  if (heads_[s].pending) heads_[s].time = q.PeekTime();
}

uint64_t ShardedRtdbs::RunMerged(SimTime horizon, uint64_t max_events) {
  Start();
  for (size_t s = 0; s < shards_.size(); ++s) Peek(s);
  uint64_t stepped = 0;
  while (stepped < max_events) {
    size_t best = shards_.size();
    for (size_t s = 0; s < shards_.size(); ++s) {
      const Head& h = heads_[s];
      if (!h.pending || h.time > horizon) continue;
      if (best == shards_.size() || h.time < heads_[best].time) best = s;
    }
    if (best == shards_.size()) break;
    shards_[best]->StepEvent();
    ++stepped;
    // Only the stepped shard's calendar can have changed: shards share
    // no events, and the coordinator wakes no other shard.
    Peek(best);
  }
  return stepped;
}

void ShardedRtdbs::RunUntil(SimTime until) {
  RunMerged(until, std::numeric_limits<uint64_t>::max());
  // Every pending event now lies beyond the horizon; align each shard's
  // clock to it, exactly as Rtdbs::RunUntil does for a lone engine.
  for (auto& shard : shards_) shard->RunUntil(until);
}

uint64_t ShardedRtdbs::RunEvents(uint64_t n) {
  return RunMerged(std::numeric_limits<SimTime>::infinity(), n);
}

bool ShardedRtdbs::StepEvent() { return RunEvents(1) == 1; }

SimTime ShardedRtdbs::Now() const {
  SimTime now = 0.0;
  for (const auto& shard : shards_) {
    now = std::max(now, shard->simulator().Now());
  }
  return now;
}

PolicySwapOutcome ShardedRtdbs::SwapPolicy(const std::string& spec) {
  PolicySwapOutcome out = shards_[0]->SwapPolicy(spec);
  if (!out.status.ok()) return out;
  for (size_t s = 1; s < shards_.size(); ++s) {
    const bool ok = shards_[s]->SwapPolicy(spec).status.ok();
    RTQ_CHECK_MSG(ok, "policy spec accepted by shard 0 but rejected later");
  }
  return out;
}

StatusOr<std::string> ShardedRtdbs::SwapScenario(const std::string& spec) {
  StatusOr<std::string> canonical = shards_[0]->SwapScenario(spec);
  if (!canonical.ok()) return canonical;
  for (size_t s = 1; s < shards_.size(); ++s) {
    const bool ok = shards_[s]->SwapScenario(spec).ok();
    RTQ_CHECK_MSG(ok, "scenario spec accepted by shard 0 but rejected later");
  }
  return canonical;
}

uint64_t ShardedRtdbs::events_dispatched() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->simulator().events_dispatched();
  }
  return total;
}

SystemSummary ShardedRtdbs::Summarize() const {
  // Shard 0's summary seeds the aggregate, so one shard reports exactly
  // what a plain Rtdbs would.
  SystemSummary agg = shards_[0]->Summarize();
  double cpu_sum = agg.cpu_utilization;
  double disk_sum = agg.avg_disk_utilization;
  for (size_t i = 1; i < shards_.size(); ++i) {
    SystemSummary s = shards_[i]->Summarize();
    agg.per_class.resize(std::max(agg.per_class.size(), s.per_class.size()));
    MergeClass(s.overall, &agg.overall);
    for (size_t c = 0; c < s.per_class.size(); ++c) {
      MergeClass(s.per_class[c], &agg.per_class[c]);
    }
    // Summed, not averaged: the cluster's multiprogramming level is the
    // total number of queries in flight across all shards.
    agg.avg_mpl += s.avg_mpl;
    cpu_sum += s.cpu_utilization;
    disk_sum += s.avg_disk_utilization;
    agg.max_disk_utilization =
        std::max(agg.max_disk_utilization, s.max_disk_utilization);
    agg.events_dispatched += s.events_dispatched;
    agg.simulated_time = std::max(agg.simulated_time, s.simulated_time);
  }
  // Batch means of independent streams do not merge into one interval.
  if (num_shards() > 1) agg.miss_ratio_ci = stats::ConfidenceInterval{};
  const double n = static_cast<double>(num_shards());
  agg.cpu_utilization = cpu_sum / n;
  agg.avg_disk_utilization = disk_sum / n;
  return agg;
}

SystemSummary ShardedRtdbs::SummarizeShard(int32_t s) const {
  RTQ_CHECK_MSG(s >= 0 && s < num_shards(), "bad shard index");
  return shards_[static_cast<size_t>(s)]->Summarize();
}

void ShardedRtdbs::AppendStateDigest(std::vector<std::string>* out) const {
  for (int32_t s = 0; s < num_shards(); ++s) {
    if (num_shards() > 1) out->push_back("shard " + std::to_string(s));
    shards_[static_cast<size_t>(s)]->AppendStateDigest(out);
  }
}

}  // namespace rtq::engine
