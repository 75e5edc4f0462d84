// The `.rtqs` deterministic snapshot format (version 1).
//
// A snapshot is NOT a memory dump. The engine's event calendar holds
// arbitrary closures that cannot be serialized, so the format records a
// *recipe* instead: the session genesis (workload/policy/seed and the
// shard shape — enough to rebuild the identical system), the journal of
// state-mutating control commands with the exact event count at which
// each was applied, and the position (event count + simulated clock)
// the snapshot was taken at. Because the simulation is deterministic,
// rebuilding from genesis and replaying the journal at the recorded
// event boundaries reproduces the snapshotted state bit-for-bit —
// restore-then-continue is indistinguishable from an uninterrupted run.
//
// The digest section makes that claim checkable rather than assumed:
// it captures one line per engine state dimension (clock, calendar
// keys, per-query runtime, CPU/disk/cache, memory manager, policy,
// source cursors, rng fingerprints — see Rtdbs::AppendStateDigest;
// a multi-shard digest is one such block per shard, each headed by a
// "shard <i>" line — see ShardedRtdbs::AppendStateDigest). Restore
// recomputes the digest after replay and any differing line fails the
// restore with a Status error naming it.
//
// Grammar (line-oriented text; '#' starts a comment, blank lines are
// ignored; tokens are space-separated; mirrors `.rtqt`):
//
//   snapshot := "rtqs 1" NL
//               "workload" SPEC NL
//               "policy" SPEC NL
//               "seed" UINT NL
//               [ "shards" UINT NL               (1..64)
//                 "placement" SPEC NL
//                 "admission" SPEC NL ]
//               "journal" INT NL
//               ("j" EVENTS ("policy"|"scenario") SPEC NL)*
//               "position" EVENTS TIME NL
//               "digest" INT NL
//               ("s" TEXT NL)*
//               "end" NL
//
// The shard lines appear only when the genesis differs from the default
// 1 shard / "hash" / "local", so an unsharded snapshot has none.
// Journal event counts must be non-decreasing and <= the position's;
// all structural violations surface as Status errors, never crashes —
// a corrupt snapshot must not take down a serving process.

#ifndef RTQ_SERVE_SNAPSHOT_H_
#define RTQ_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace rtq::serve {

/// The genesis of a serve session: everything needed to rebuild the
/// identical system from scratch. `workload` uses the serve workload
/// grammar ("baseline:rate=R" | "multiclass:rate=R" | "scenario:SPEC");
/// `policy` is a core::PolicyRegistry spec; `shards`, `placement` and
/// `admission` shape the engine::ShardedRtdbs (see engine::ShardConfig).
struct SessionSpec {
  std::string workload = "baseline:rate=0.06";
  std::string policy = "pmm";
  uint64_t seed = 42;
  int32_t shards = 1;
  std::string placement = "hash";
  std::string admission = "local";
};

/// One state-mutating control command, recorded at the event count it
/// was applied at. `arg` is the canonical (registry round-trippable)
/// spec, so replaying it rebuilds the same object.
struct JournalEntry {
  uint64_t events = 0;
  std::string command;  ///< "policy" | "scenario"
  std::string arg;
};

struct Snapshot {
  /// Format version; only 1 exists.
  int32_t version = 1;
  SessionSpec session;
  std::vector<JournalEntry> journal;
  /// Events dispatched / simulated clock at the snapshot instant.
  uint64_t position_events = 0;
  double position_time = 0.0;
  /// Engine state digest lines (ShardedRtdbs::AppendStateDigest), verified
  /// line-by-line after a restore replay.
  std::vector<std::string> digest;
};

bool operator==(const SessionSpec& a, const SessionSpec& b);
bool operator!=(const SessionSpec& a, const SessionSpec& b);
bool operator==(const JournalEntry& a, const JournalEntry& b);
bool operator!=(const JournalEntry& a, const JournalEntry& b);
bool operator==(const Snapshot& a, const Snapshot& b);
bool operator!=(const Snapshot& a, const Snapshot& b);

/// Parse(Serialize(s)) == s is a fixed point (doubles use the shortest
/// bit-exact rendering).
std::string SerializeSnapshot(const Snapshot& snapshot);

/// Parses `.rtqs` text. Malformed input — bad or missing version header,
/// truncated sections, non-numeric fields, a shard count outside
/// 1..64, out-of-order journal events, count mismatches, a missing
/// "end" — returns an InvalidArgument Status
/// naming the offending line.
StatusOr<Snapshot> ParseSnapshot(const std::string& text);

Status WriteSnapshotFile(const Snapshot& snapshot, const std::string& path);
StatusOr<Snapshot> ReadSnapshotFile(const std::string& path);

}  // namespace rtq::serve

#endif  // RTQ_SERVE_SNAPSHOT_H_
