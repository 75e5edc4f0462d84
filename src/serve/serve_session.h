// A long-running engine session with deterministic snapshot/restore.
//
// ServeSession wraps an engine::ShardedRtdbs built from a SessionSpec
// genesis — a 1-shard cluster by default, which is bit-identical to a
// plain engine::Rtdbs — and records every state-mutating control command
// (policy/scenario swaps) in a journal keyed by the event count it was
// applied at. Because the engine is deterministic, {genesis, journal,
// position} is a complete serialization of the session: Restore rebuilds
// the cluster from genesis, replays the journal at the exact event
// boundaries, steps to the snapshot position, and verifies the
// recomputed state digest line-by-line against the snapshot's. A
// restored session's future trajectory is bit-identical to the
// uninterrupted original — the invariant tests/test_serve_snapshot.cc
// pins for every registered policy, sharded and unsharded.
//
// Failure discipline: malformed specs, corrupt snapshots, and
// unreachable positions all surface as Status errors that leave the
// running session untouched (Restore builds the replacement session on
// the side; the caller swaps only on success).

#ifndef RTQ_SERVE_SERVE_SESSION_H_
#define RTQ_SERVE_SERVE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/sharded_rtdbs.h"
#include "serve/snapshot.h"

namespace rtq::serve {

class ServeSession {
 public:
  /// Builds a fresh session from its genesis. Fails (without crashing)
  /// on an unknown workload grammar, a policy spec the PolicyRegistry
  /// rejects, or a scenario spec the ScenarioRegistry rejects.
  static StatusOr<std::unique_ptr<ServeSession>> Create(
      const SessionSpec& spec);

  /// Rebuilds the snapshotted session: genesis, journal replay at the
  /// recorded event counts, step to the snapshot position, then verify
  /// the recomputed digest line-by-line. Any deviation — a journal spec
  /// that no longer applies, a calendar that drains before the position,
  /// a differing digest line — fails with a Status naming it.
  static StatusOr<std::unique_ptr<ServeSession>> Restore(
      const Snapshot& snapshot);

  /// Steps up to `n` events; returns how many actually dispatched
  /// (fewer only when the event calendar drains).
  uint64_t RunEvents(uint64_t n);

  /// Hot-swaps the memory policy, journaling the canonical spec whenever
  /// a fresh policy instance was attached (including a rebuild-rollback
  /// after an attach failure — replay must reproduce the state reset).
  engine::PolicySwapOutcome ApplyPolicy(const std::string& spec);

  /// Swaps the arrival stream to `spec`; journals and returns the
  /// canonical scenario spec on success, leaves state untouched on error.
  StatusOr<std::string> ApplyScenario(const std::string& spec);

  /// Captures {genesis, journal, position, state digest} at this instant.
  Snapshot TakeSnapshot() const;

  uint64_t events() const { return engine_->events_dispatched(); }
  /// The cluster this session steps (`session_spec().shards` shards).
  engine::ShardedRtdbs& engine() { return *engine_; }
  const SessionSpec& session_spec() const { return spec_; }
  const std::vector<JournalEntry>& journal() const { return journal_; }

  /// Translates a serve workload spec — "baseline:rate=R",
  /// "multiclass:rate=R", or "scenario:SPEC" — into a full SystemConfig.
  /// Exposed for the driver's flag validation; returns InvalidArgument
  /// (not CHECK) on malformed input.
  static StatusOr<engine::SystemConfig> BuildConfig(const SessionSpec& spec);

 private:
  ServeSession(SessionSpec spec, std::unique_ptr<engine::ShardedRtdbs> engine)
      : spec_(std::move(spec)), engine_(std::move(engine)) {}

  /// Steps until `target` events have dispatched; Internal error if the
  /// calendar drains first (the snapshot position is unreachable).
  Status StepTo(uint64_t target);

  SessionSpec spec_;
  std::unique_ptr<engine::ShardedRtdbs> engine_;
  std::vector<JournalEntry> journal_;
};

}  // namespace rtq::serve

#endif  // RTQ_SERVE_SERVE_SESSION_H_
