#include "workload/placement.h"

#include <cstdio>
#include <cstdlib>

#include "common/fnv.h"

namespace rtq::workload {

namespace {

uint64_t HashId(QueryId id, uint64_t salt) {
  Fnv1a64 h;
  h.Update64(static_cast<uint64_t>(id));
  h.Update64(salt);
  return h.digest();
}

}  // namespace

StatusOr<ShardPlacement> ShardPlacement::Make(const std::string& spec,
                                              int32_t num_shards) {
  if (num_shards < 1)
    return Status::InvalidArgument("placement: num_shards must be >= 1");
  ShardPlacement p;
  p.num_shards_ = num_shards;

  std::string name = spec;
  std::string args;
  if (auto colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    args = spec.substr(colon + 1);
  }

  if (name == "hash" || name == "range") {
    if (!args.empty())
      return Status::InvalidArgument("placement \"" + name +
                                     "\" takes no arguments, got \"" + args +
                                     "\"");
    p.kind_ = name == "hash" ? Kind::kHash : Kind::kRange;
    p.spec_ = name;
    return p;
  }
  if (name == "skew") {
    p.kind_ = Kind::kSkew;
    if (!args.empty()) {
      if (args.rfind("hot=", 0) != 0)
        return Status::InvalidArgument(
            "placement \"skew\": unknown argument \"" + args +
            "\" (want hot=F)");
      char* end = nullptr;
      const char* value = args.c_str() + 4;
      double hot = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(hot > 0.0) || hot > 1.0)
        return Status::InvalidArgument(
            "placement \"skew\": hot must be in (0, 1], got \"" +
            args.substr(4) + "\"");
      p.hot_ = hot;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "skew:hot=%.2f", p.hot_);
    p.spec_ = buf;
    return p;
  }
  return Status::InvalidArgument("unknown placement \"" + name +
                                 "\" (want hash, range, or skew[:hot=F])");
}

int32_t ShardPlacement::ShardOf(QueryId id, int64_t relation,
                                int64_t num_relations) const {
  if (num_shards_ == 1) return 0;
  switch (kind_) {
    case Kind::kHash:
      return static_cast<int32_t>(HashId(id, 0) %
                                  static_cast<uint64_t>(num_shards_));
    case Kind::kRange: {
      if (relation < 0 || num_relations <= 0) return 0;
      if (relation >= num_relations) relation = num_relations - 1;
      return static_cast<int32_t>(relation * num_shards_ / num_relations);
    }
    case Kind::kSkew: {
      // 53 high bits give a uniform double in [0, 1); arrivals under the
      // hot threshold pin to shard 0, the rest rehash over the others.
      double u = static_cast<double>(HashId(id, 1) >> 11) * 0x1.0p-53;
      if (u < hot_) return 0;
      return 1 + static_cast<int32_t>(HashId(id, 2) %
                                      static_cast<uint64_t>(num_shards_ - 1));
    }
  }
  return 0;
}

}  // namespace rtq::workload
