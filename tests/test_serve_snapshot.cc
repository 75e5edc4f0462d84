// serve/snapshot + serve/serve_session: the `.rtqs` format and the
// headline serve-mode invariant — restore-then-continue is bit-identical
// to an uninterrupted run, for every registered policy, sharded and
// unsharded, with and without mid-run policy/scenario swaps in the
// journal.

#include "serve/snapshot.h"

#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/policy_registry.h"
#include "engine/system_config.h"
#include "gtest/gtest.h"
#include "serve/serve_session.h"
#include "summary_testing.h"
#include "workload/scenario_registry.h"

namespace rtq::serve {
namespace {

Snapshot SampleSnapshot() {
  Snapshot snap;
  snap.session.workload = "multiclass:rate=0.1";
  snap.session.policy = "pmm-fair:w=1,2";
  snap.session.seed = 7;
  snap.journal.push_back(JournalEntry{1000, "policy", "minmax:10"});
  snap.journal.push_back(
      JournalEntry{2500, "scenario", "flash:rate=0.5,mult=6"});
  snap.position_events = 4000;
  snap.position_time = 1234.5678901234567;
  snap.digest = {"clock 1234.5678901234567", "dispatched 4000",
                 "pending 12 9876543210"};
  return snap;
}

Snapshot ShardedSampleSnapshot() {
  Snapshot snap = SampleSnapshot();
  snap.session.shards = 4;
  snap.session.placement = "skew:hot=0.6";
  snap.session.admission = "global:mpl=24";
  snap.digest = {"shard 0", "clock 1234.5678901234567", "shard 1",
                 "clock 1234.5", "shard 2", "clock 1200", "shard 3",
                 "clock 1234"};
  return snap;
}

TEST(SnapshotFormat, SerializeParseIsAFixedPoint) {
  for (const Snapshot& snap : {SampleSnapshot(), ShardedSampleSnapshot()}) {
    auto parsed = ParseSnapshot(SerializeSnapshot(snap));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value(), snap);
  }
}

// The shard lines are written only for a non-default genesis, so an
// unsharded snapshot has none.
TEST(SnapshotFormat, ShardLinesOnlyForANonDefaultGenesis) {
  const std::string plain = SerializeSnapshot(SampleSnapshot());
  EXPECT_EQ(plain.find("shards"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("placement"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("admission"), std::string::npos) << plain;

  const std::string sharded = SerializeSnapshot(ShardedSampleSnapshot());
  EXPECT_NE(sharded.find("seed 7\nshards 4\nplacement skew:hot=0.6\n"
                         "admission global:mpl=24\njournal 2\n"),
            std::string::npos)
      << sharded;

  // One shard with a non-default placement is a non-default genesis too.
  Snapshot one = SampleSnapshot();
  one.session.placement = "range";
  const std::string text = SerializeSnapshot(one);
  EXPECT_NE(text.find("shards 1\nplacement range\nadmission local\n"),
            std::string::npos)
      << text;
  auto parsed = ParseSnapshot(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), one);
}

TEST(SnapshotFormat, ParsesCommentsAndBlankLines) {
  auto parsed = ParseSnapshot(
      "# a serve snapshot\n"
      "rtqs 1\n"
      "\n"
      "workload baseline:rate=0.06\n"
      "policy pmm\n"
      "seed 42\n"
      "journal 0\n"
      "position 0 0\n"
      "# no digest yet\n"
      "digest 0\n"
      "end\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().session.workload, "baseline:rate=0.06");
  EXPECT_EQ(parsed.value(), Snapshot{});
}

TEST(SnapshotFormat, StructuralViolationsAreStatusErrors) {
  const char* header =
      "rtqs 1\nworkload w\npolicy p\nseed 42\n";
  struct Case {
    const char* label;
    std::string text;
  };
  const Case cases[] = {
      {"empty", ""},
      {"wrong magic", "rtqt 1\n"},
      {"future version", "rtqs 2\n"},
      {"missing workload", "rtqs 1\npolicy p\n"},
      {"bad seed", "rtqs 1\nworkload w\npolicy p\nseed -1\n"},
      {"zero shards", std::string(header) + "shards 0\n"},
      {"shards above the bound", std::string(header) + "shards 65\n"},
      {"huge shards", std::string(header) + "shards 99999999999999\n"},
      {"negative shards", std::string(header) + "shards -2\n"},
      {"non-numeric shards", std::string(header) + "shards four\n"},
      {"shards trailing junk", std::string(header) + "shards 4 5\n"},
      {"shards without placement", std::string(header) + "shards 4\n"
                                   "admission local\njournal 0\n"},
      {"empty placement", std::string(header) + "shards 4\nplacement\n"},
      {"shards without admission", std::string(header) + "shards 4\n"
                                   "placement hash\njournal 0\n"},
      {"empty admission", std::string(header) + "shards 4\n"
                          "placement hash\nadmission \n"},
      {"placement without shards", std::string(header) + "placement hash\n"
                                   "admission local\njournal 0\n"},
      {"shard lines after journal", std::string(header) + "journal 0\n"
                                    "shards 2\n"},
      {"bad journal count", std::string(header) + "journal many\n"},
      {"truncated journal", std::string(header) + "journal 2\n"
                            "j 10 policy pmm\nposition 10 1\n"},
      {"unknown journal command", std::string(header) + "journal 1\n"
                                  "j 10 restart pmm\n"},
      {"journal going backwards", std::string(header) + "journal 2\n"
                                  "j 20 policy pmm\nj 10 policy max\n"},
      {"journal past position", std::string(header) + "journal 1\n"
                                "j 50 policy pmm\nposition 10 1\n"
                                "digest 0\nend\n"},
      {"negative position time", std::string(header) + "journal 0\n"
                                 "position 10 -1\n"},
      {"truncated digest", std::string(header) + "journal 0\n"
                           "position 0 0\ndigest 2\ns clock 0\n"},
      {"missing end", std::string(header) + "journal 0\n"
                      "position 0 0\ndigest 0\n"},
      {"trailing content", std::string(header) + "journal 0\n"
                           "position 0 0\ndigest 0\nend\nrtqs 1\n"},
  };
  for (const Case& c : cases) {
    auto parsed = ParseSnapshot(c.text);
    EXPECT_FALSE(parsed.ok()) << c.label;
    EXPECT_NE(parsed.status().message().find("line"), std::string::npos)
        << c.label << ": " << parsed.status().message();
  }
}

TEST(SnapshotFormat, FileRoundTripAndMissingFile) {
  Snapshot snap = SampleSnapshot();
  std::string path =
      ::testing::TempDir() + "/rtq_serve_snapshot_test/roundtrip.rtqs";
  ASSERT_TRUE(WriteSnapshotFile(snap, path).ok());
  auto read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), snap);

  auto missing = ReadSnapshotFile(path + ".does-not-exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// Mirrors TraceFuzz.CorruptedInputNeverCrashes: random mutations and
// truncations of a valid snapshot must parse to a Status or to a value
// that itself round-trips — never crash (the corrupt-snapshot half of
// the Status-not-crash satellite).
TEST(SnapshotFuzz, CorruptedInputNeverCrashes) {
  Rng rng(4242);
  const std::string bases[] = {SerializeSnapshot(SampleSnapshot()),
                               SerializeSnapshot(ShardedSampleSnapshot())};
  for (int iter = 0; iter < 800; ++iter) {
    std::string text = bases[iter % 2];
    if (rng.NextDouble() < 0.5) {
      text.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1)));
    }
    int mutations = static_cast<int>(rng.UniformInt(0, 5));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
      text[pos] = static_cast<char>(rng.UniformInt(9, 126));
    }
    auto parsed = ParseSnapshot(text);
    if (parsed.ok()) {
      auto again = ParseSnapshot(SerializeSnapshot(parsed.value()));
      ASSERT_TRUE(again.ok()) << iter;
      EXPECT_EQ(again.value(), parsed.value()) << iter;
      EXPECT_GE(parsed.value().session.shards, 1) << iter;
      EXPECT_LE(parsed.value().session.shards,
                engine::ShardConfig::kMaxShards)
          << iter;
    } else {
      EXPECT_FALSE(parsed.status().message().empty()) << iter;
    }
  }
}

// --- the headline invariant --------------------------------------------

/// Events before the property tests snapshot. Probed so that, on every
/// workload below, each PMM-driven policy has adapted (baseline:rate=0.08
/// first adapts near 95k events, mixshift near 102k, the 2-shard capped
/// cluster near 182k): the replay then has to rebuild adapted MPL
/// targets, `select` arm statistics and `pmm-predict` forecasts, not
/// just a cold start.
constexpr uint64_t kAdaptedEvents = 120000;
constexpr uint64_t kAdaptedClusterEvents = 200000;

/// Runs `spec` for `before` events, snapshots (through the text format,
/// so serialization is part of the proof), continues `after` events and
/// digests; then restores the snapshot into a fresh session, continues
/// `after` events and digests. Both digests, and both summaries, must be
/// identical. Every PMM controller must have adapted, and a capped
/// cluster's coordinator must have refused, before the snapshot.
void ExpectZeroDriftRestore(const SessionSpec& spec, uint64_t before,
                            uint64_t after) {
  SCOPED_TRACE(spec.workload + " / " + spec.policy + " / shards=" +
               std::to_string(spec.shards));
  auto original = ServeSession::Create(spec);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_EQ(original.value()->RunEvents(before), before);
  engine::ShardedRtdbs& cluster = original.value()->engine();
  for (int32_t s = 0; s < cluster.num_shards(); ++s) {
    if (const core::PmmController* pmm = cluster.shard(s).pmm()) {
      ASSERT_GT(pmm->adaptations(), 0) << "shard " << s;
    }
  }
  if (cluster.coordinator() != nullptr) {
    ASSERT_GT(cluster.coordinator()->refusals(), 0);
  }

  auto snapshot =
      ParseSnapshot(SerializeSnapshot(original.value()->TakeSnapshot()));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value().session, spec);

  ASSERT_EQ(original.value()->RunEvents(after), after);
  std::vector<std::string> uninterrupted;
  cluster.AppendStateDigest(&uninterrupted);

  auto restored = ServeSession::Restore(snapshot.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value()->RunEvents(after), after);
  std::vector<std::string> resumed;
  restored.value()->engine().AppendStateDigest(&resumed);

  EXPECT_EQ(uninterrupted, resumed);
  // Restore rebuilds the summary accumulators by replay.
  testing::ExpectSameSummary(cluster.Summarize(),
                             restored.value()->engine().Summarize());
}

// Every registered policy, on the baseline workload, on a scenario
// workload, and on a 2-shard cluster under a binding global cap:
// restore-then-continue must be bit-identical to an uninterrupted run.
// New policies join this gate automatically.
TEST(SnapshotProperty, EveryPolicyRestoresWithZeroDrift) {
  std::vector<std::string> policies = core::PolicyRegistry::Global().Names();
  ASSERT_FALSE(policies.empty());
  for (const std::string& policy : policies) {
    SessionSpec baseline;
    baseline.workload = "baseline:rate=0.08";
    baseline.policy = policy;
    ExpectZeroDriftRestore(baseline, kAdaptedEvents, 2000);

    SessionSpec scenario;
    scenario.workload = "scenario:diurnal";
    scenario.policy = policy;
    ExpectZeroDriftRestore(scenario, kAdaptedEvents, 2000);

    // The cap binds before the snapshot point, so the replay covers
    // coordinator refusals, not just two independent shards.
    SessionSpec cluster;
    cluster.workload = "baseline:rate=0.12";
    cluster.policy = policy;
    cluster.shards = 2;
    cluster.admission = "global:mpl=2";
    ExpectZeroDriftRestore(cluster, kAdaptedClusterEvents, 5000);
  }
}

// A sample of every registered scenario (as the boot workload) under the
// paper's PMM policy.
TEST(SnapshotProperty, EveryScenarioRestoresWithZeroDrift) {
  std::vector<std::string> scenarios =
      workload::ScenarioRegistry::Global().Names();
  ASSERT_FALSE(scenarios.empty());
  for (const std::string& scenario : scenarios) {
    SessionSpec spec;
    spec.workload = "scenario:" + scenario;
    spec.policy = "pmm";
    ExpectZeroDriftRestore(spec, kAdaptedEvents, 2000);
  }
}

// The journal replay path: a session with live policy and scenario swaps
// mid-run must restore with zero drift too — the snapshot records the
// swaps at their exact event positions. Unsharded and on a skewed
// 4-shard cluster.
TEST(SnapshotProperty, JournaledSwapsRestoreWithZeroDrift) {
  for (int32_t shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SessionSpec spec;
    spec.workload = "multiclass:rate=0.1";
    spec.policy = "pmm";
    spec.shards = shards;
    if (shards > 1) spec.placement = "skew:hot=0.6";
    auto original = ServeSession::Create(spec);
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    ServeSession& s = *original.value();

    ASSERT_EQ(s.RunEvents(3000), 3000u);
    auto swap1 = s.ApplyPolicy("select:candidates=pmm+pmm-predict");
    ASSERT_TRUE(swap1.status.ok()) << swap1.status.ToString();
    ASSERT_EQ(s.RunEvents(3000), 3000u);
    auto swap2 = s.ApplyScenario("flash:mult=6");
    ASSERT_TRUE(swap2.ok()) << swap2.status().ToString();
    ASSERT_EQ(s.RunEvents(2000), 2000u);

    auto snapshot = ParseSnapshot(SerializeSnapshot(s.TakeSnapshot()));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ASSERT_EQ(snapshot.value().journal.size(), 2u);

    ASSERT_EQ(s.RunEvents(4000), 4000u);
    std::vector<std::string> uninterrupted;
    s.engine().AppendStateDigest(&uninterrupted);

    auto restored = ServeSession::Restore(snapshot.value());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value()->journal(), snapshot.value().journal);
    ASSERT_EQ(restored.value()->RunEvents(4000), 4000u);
    std::vector<std::string> resumed;
    restored.value()->engine().AppendStateDigest(&resumed);

    EXPECT_EQ(uninterrupted, resumed);
  }
}

// A snapshot whose digest does not match the replayed state must fail
// restore with an error naming the first mismatching line — a corrupt
// or hand-edited snapshot cannot silently produce a diverged session.
// The last line lies in the last shard's block, so every shard is
// verified.
TEST(SnapshotProperty, TamperedDigestFailsRestore) {
  for (int32_t shards : {1, 2}) {
    SessionSpec spec;
    spec.shards = shards;
    auto session = ServeSession::Create(spec);
    ASSERT_TRUE(session.ok());
    ASSERT_EQ(session.value()->RunEvents(2000), 2000u);
    Snapshot snap = session.value()->TakeSnapshot();
    ASSERT_FALSE(snap.digest.empty());
    snap.digest.back() = "clock 999999";

    auto restored = ServeSession::Restore(snap);
    ASSERT_FALSE(restored.ok()) << shards;
    EXPECT_NE(restored.status().message().find("digest mismatch"),
              std::string::npos)
        << restored.status().message();
  }
}

// A journal entry whose spec no longer applies (here: a scenario whose
// class count cannot match the session's workload) must fail the replay
// with a Status, not crash.
TEST(SnapshotProperty, UnreplayableJournalFailsRestore) {
  auto session = ServeSession::Create(SessionSpec{});
  ASSERT_TRUE(session.ok());
  ASSERT_EQ(session.value()->RunEvents(2000), 2000u);
  Snapshot snap = session.value()->TakeSnapshot();
  snap.journal.push_back(JournalEntry{1000, "scenario", "flash:mult=6"});
  // Keep the grammar valid: entries must be non-decreasing and within
  // the position, which 1000 <= 2000 satisfies.
  auto restored = ServeSession::Restore(snap);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("journal replay"),
            std::string::npos)
      << restored.status().message();
}

// --- sharded sessions --------------------------------------------------

TEST(ShardedServe, RunsAndAppliesPolicySwapsClusterWide) {
  SessionSpec spec;
  spec.workload = "baseline:rate=0.12";
  spec.policy = "pmm";
  spec.shards = 4;
  spec.placement = "skew:hot=0.6";
  auto session = ServeSession::Create(spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  engine::ShardedRtdbs& cluster = session.value()->engine();
  EXPECT_EQ(cluster.num_shards(), 4);

  ASSERT_EQ(session.value()->RunEvents(20000), 20000u);
  EXPECT_EQ(session.value()->events(), 20000u);

  auto swap = session.value()->ApplyPolicy("max");
  ASSERT_TRUE(swap.status.ok()) << swap.status.ToString();
  for (int32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.shard(s).policy().Describe(), "max");
  }
  // A rejected spec leaves every shard on the incumbent policy.
  auto bad = session.value()->ApplyPolicy("no-such-policy");
  EXPECT_FALSE(bad.status.ok());
  for (int32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.shard(s).policy().Describe(), "max");
  }
}

TEST(ShardedServe, RejectsBadShardSpecs) {
  SessionSpec spec;
  spec.shards = 2;
  spec.placement = "roundrobin";
  EXPECT_FALSE(ServeSession::Create(spec).ok());
  spec.placement = "hash";
  spec.admission = "global";
  EXPECT_FALSE(ServeSession::Create(spec).ok());
  // One shard is a cluster too: its placement and admission are honoured.
  spec.shards = 1;
  spec.placement = "roundrobin";
  spec.admission = "local";
  EXPECT_FALSE(ServeSession::Create(spec).ok());
  // Out-of-range shard counts fail validation before any engine is built.
  spec.placement = "hash";
  for (int32_t shards : {0, -3, engine::ShardConfig::kMaxShards + 1,
                         std::numeric_limits<int32_t>::max()}) {
    spec.shards = shards;
    auto created = ServeSession::Create(spec);
    ASSERT_FALSE(created.ok()) << shards;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument) << shards;
  }
}

}  // namespace
}  // namespace rtq::serve
