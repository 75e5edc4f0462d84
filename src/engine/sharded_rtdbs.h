// A sharded RTDBS: N independent engines behind a deterministic router
// (ROADMAP item 1 — the "millions of users" scale-out).
//
// Each shard is a complete Rtdbs — its own buffer pool, CPU, disk farm,
// memory manager, and policy instance — built from the same base
// SystemConfig. Routing works by *filtered replication* of the arrival
// process: every shard generates the identical arrival stream (same
// seed, same RNG draw order, same timestamps), and the pluggable
// placement function (workload/placement.h) assigns each arrival to
// exactly one shard; the others drop it at their sink. That keeps the
// per-shard draw order pinned — the stream a shard sees is a pure
// function of (seed, placement, shard index) — and it models one global
// arrival process declustered across shards, for Poisson, scenario, and
// trace sources alike.
//
// The cluster advances on one merged clock: each step dispatches the
// earliest pending event across all shards (ties break toward the lowest
// shard index), so the interleaving is deterministic and a global-MPL
// coordinator observes shard transitions in a reproducible order. With
// num_shards=1 the merged loop degenerates to stepping the single shard,
// which makes a 1-shard cluster bit-identical to a plain Rtdbs — the
// invariant the sharded golden-trajectory tests pin.
//
// Admission is per-shard by default ("local": each policy runs its own
// MPL against its own pool). Under "global:mpl=N" a core::ShardCoordinator
// caps the cluster-wide admitted count; enforcement lives in the
// MemoryManager's admission gate, so every registered policy works
// unmodified (policies may additionally introspect the coordinator via
// PolicyHost::coordinator).

#ifndef RTQ_ENGINE_SHARDED_RTDBS_H_
#define RTQ_ENGINE_SHARDED_RTDBS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/shard_coordinator.h"
#include "engine/rtdbs.h"
#include "engine/system_config.h"
#include "workload/placement.h"

namespace rtq::engine {

class ShardedRtdbs {
 public:
  /// Builds `shards.num_shards` engines from `base` (whose shard identity
  /// is overwritten per shard). Fails on invalid base or shard configs.
  static StatusOr<std::unique_ptr<ShardedRtdbs>> Create(
      const SystemConfig& base, const ShardConfig& shards);

  ShardedRtdbs(const ShardedRtdbs&) = delete;
  ShardedRtdbs& operator=(const ShardedRtdbs&) = delete;

  /// Advances the whole cluster to absolute time `until` on the merged
  /// clock, then aligns every shard's clock to the horizon (mirroring
  /// Rtdbs::RunUntil).
  void RunUntil(SimTime until);

  /// Starts every shard's arrival stream and samplers. Idempotent.
  void Start();

  /// Dispatches up to `n` events on the merged clock, each the earliest
  /// pending across all shards (lowest shard index on ties). Returns how
  /// many dispatched: fewer only when every shard's calendar is empty.
  uint64_t RunEvents(uint64_t n);

  /// Dispatches exactly one event (RunEvents(1)). Returns false when
  /// every shard's calendar is empty.
  bool StepEvent();

  /// Latest shard clock (== the RunUntil horizon after a run).
  SimTime Now() const;

  /// Hot-swaps every shard's policy, or none: shard 0 probes `spec`, and
  /// the other shards swap only after it succeeded. The outcome is shard
  /// 0's (a rollback there leaves the whole cluster on the incumbent).
  PolicySwapOutcome SwapPolicy(const std::string& spec);

  /// Swaps every shard's arrival stream, or none, with the protocol of
  /// SwapPolicy. Each shard forks the new source from its own live rng;
  /// those streams are identical across shards (same genesis seed), so
  /// filtered replication still sees one global arrival process.
  StatusOr<std::string> SwapScenario(const std::string& spec);

  int32_t num_shards() const { return static_cast<int32_t>(shards_.size()); }
  Rtdbs& shard(int32_t s) { return *shards_[static_cast<size_t>(s)]; }
  const Rtdbs& shard(int32_t s) const {
    return *shards_[static_cast<size_t>(s)];
  }
  const ShardConfig& shard_config() const { return shard_config_; }
  const workload::ShardPlacement& placement() const { return *placement_; }
  /// Null under local admission.
  const core::ShardCoordinator* coordinator() const {
    return coordinator_.get();
  }

  /// Sum of per-shard dispatched events.
  uint64_t events_dispatched() const;

  /// Cluster-wide aggregate: completions/misses summed, time averages
  /// completion-weighted, avg_mpl summed (total in-flight across shards),
  /// utilizations averaged per shard (max = cluster max). With more than
  /// one shard the batch-means miss CI does not merge across independent
  /// streams and is left empty; use SummarizeShard for per-shard CIs. A
  /// 1-shard summary is bit-identical to the shard's own.
  SystemSummary Summarize() const;
  SystemSummary SummarizeShard(int32_t s) const;

  /// Per-shard digests, each prefixed by a "shard <i>" line when there is
  /// more than one shard — a 1-shard digest is exactly the shard's, so
  /// unsharded serve snapshots read the same as a plain Rtdbs's.
  void AppendStateDigest(std::vector<std::string>* out) const;

 private:
  ShardedRtdbs() = default;

  /// A shard's earliest pending event time, cached by the merged loop.
  struct Head {
    SimTime time = 0.0;
    bool pending = false;
  };

  /// Refreshes heads_[s] from shard s's calendar.
  void Peek(size_t s);

  /// The merged loop behind RunUntil and RunEvents: dispatches the
  /// earliest pending event at or before `horizon` (ties -> lowest
  /// shard index) until none qualifies or `max_events` dispatched.
  /// Peeks every shard once, then after each step only the stepped one.
  uint64_t RunMerged(SimTime horizon, uint64_t max_events);

  ShardConfig shard_config_;
  std::unique_ptr<workload::ShardPlacement> placement_;
  std::unique_ptr<core::ShardCoordinator> coordinator_;
  /// Declared after placement_/coordinator_: shards hold raw pointers to
  /// both and must be destroyed first.
  std::vector<std::unique_ptr<Rtdbs>> shards_;
  /// One per shard, sized at Create so the merged loop never allocates.
  std::vector<Head> heads_;
  bool started_ = false;
};

}  // namespace rtq::engine

#endif  // RTQ_ENGINE_SHARDED_RTDBS_H_
