#include "engine/system_config.h"

#include "core/policy_registry.h"
#include "core/shard_coordinator.h"
#include "workload/placement.h"

namespace rtq::engine {

Status ShardConfig::Validate() const {
  if (num_shards < 1 || num_shards > kMaxShards)
    return Status::InvalidArgument("num_shards must be in [1, " +
                                   std::to_string(kMaxShards) + "], got " +
                                   std::to_string(num_shards));
  {
    auto p = workload::ShardPlacement::Make(placement, num_shards);
    if (!p.ok()) return p.status();
  }
  {
    auto a = core::ParseAdmissionSpec(admission);
    if (!a.ok()) return a.status();
  }
  return Status::Ok();
}

storage::DatabaseSpec SystemConfig::EffectiveDatabase() const {
  storage::DatabaseSpec spec = database;
  if (spec.num_disks == 0) spec.num_disks = num_disks;
  return spec;
}

Status SystemConfig::Validate() const {
  if (mips <= 0.0) return Status::InvalidArgument("mips must be > 0");
  if (num_disks <= 0)
    return Status::InvalidArgument("num_disks must be > 0");
  if (memory_pages <= 0)
    return Status::InvalidArgument("memory_pages must be > 0");
  RTQ_RETURN_IF_ERROR(disk.Validate());
  RTQ_RETURN_IF_ERROR(exec.Validate());
  RTQ_RETURN_IF_ERROR(pmm.Validate());
  if (database.num_disks != 0 && database.num_disks != num_disks) {
    // Caught here instead of by the disk-submit hot-path assert (which a
    // release build skips): the engine builds `num_disks` elevators while
    // the layout spans `database.num_disks`.
    return Status::InvalidArgument(
        "database.num_disks (" + std::to_string(database.num_disks) +
        ") does not match num_disks (" + std::to_string(num_disks) +
        "); leave database.num_disks at 0 to derive it from num_disks");
  }
  {
    // Database/workload validation needs the spec cross-checks, run
    // against the resolved layout (0 = inherit num_disks).
    Status s = EffectiveDatabase().Validate(disk);
    if (!s.ok()) return s;
  }
  if (trace != nullptr && scenario.enabled())
    return Status::InvalidArgument(
        "config sets both a trace and a scenario; pick one arrival source");
  if (scenario.enabled()) {
    Status s = scenario.Validate(workload);
    if (!s.ok()) return s;
  }
  {
    // The policy spec must parse and name a registered factory; class- or
    // probe-dependent checks run later, in MemoryPolicy::Attach.
    auto p = core::PolicyRegistry::Global().Create(policy.spec);
    if (!p.ok()) return p.status();
  }
  if (miss_ci_batch < 1)
    return Status::InvalidArgument("miss_ci_batch must be >= 1");
  return Status::Ok();
}

}  // namespace rtq::engine
