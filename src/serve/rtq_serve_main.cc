// rtq_serve: the long-running serve-mode driver (docs/SERVE.md).
//
// Steps an engine indefinitely — at max speed or wall-clock paced — while
// accepting live control commands (see serve/control.h) from stdin or a
// --cmds script, streaming metrics JSON lines to stdout, and supporting
// deterministic snapshot/restore mid-flight.
//
//   rtq_serve [--workload=SPEC] [--policy=SPEC] [--seed=N]
//             [--shards=N]                shards of the engine::ShardedRtdbs
//                                         cluster (default 1, at most 64);
//                                         with N > 1 metrics stream one
//                                         line per shard
//             [--placement=SPEC]          hash | range | skew:hot=F
//             [--admission=SPEC]          local | global:mpl=N
//             [--restore=PATH]            start from a `.rtqs` snapshot;
//                                         its genesis (workload, policy,
//                                         seed, shards, placement,
//                                         admission) overrides those flags
//             [--cmds=PATH]               scripted mode: execute commands,
//                                         then exit (errors exit 2)
//             [--pace=R]                  R simulated seconds per wall
//                                         second; 0 = max speed (default)
//             [--metrics-every=N]         metrics line every N events
//                                         (default 20000; 0 = off)
//             [--max-events=N]            stop after N events (0 = no cap)
//             [--bench-json=DRIVER]       write results/BENCH_<DRIVER>.json
//                                         on exit (zero-drift CI gate)
//
// Streams: metrics JSON lines -> stdout; human-readable acks, stats and
// errors -> stderr. Exit 0 on a clean quit/EOF/cap, 2 on a fatal error
// (bad flags, unreadable snapshot, scripted-mode command failure).

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "harness/args.h"
#include "harness/bench_json.h"
#include "harness/metrics_streamer.h"
#include "harness/runner.h"
#include "serve/control.h"
#include "serve/serve_session.h"

namespace {

using rtq::Status;
using rtq::serve::Command;
using rtq::serve::ServeSession;
using rtq::serve::SessionSpec;
using rtq::serve::Snapshot;

/// Most events stepped between control-channel polls: a live command
/// waits behind at most this many events (~0.1 ms at max speed).
constexpr uint64_t kSliceEvents = 256;

double WallNow() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ServeState {
  std::unique_ptr<ServeSession> session;
  /// One streamer per shard, so each shard's incremental record cursor
  /// advances independently.
  std::vector<std::unique_ptr<rtq::harness::MetricsStreamer>> streamers;
  int64_t metrics_every = 20000;
  uint64_t next_metrics = 0;
  uint64_t max_events = 0;  ///< 0 = uncapped
  /// Event count of the current stream's most recent metrics line.
  std::optional<uint64_t> last_emitted;
  bool quit = false;

  void ResetStreamer() {
    // A restored session replays history from event zero, so the
    // incremental record cursors must restart too.
    streamers.clear();
    const int32_t shards = session->engine().num_shards();
    for (int32_t s = 0; s < shards; ++s) {
      // Only a multi-shard stream tags its lines with the shard index.
      streamers.push_back(std::make_unique<rtq::harness::MetricsStreamer>(
          stdout, shards > 1 ? s : -1));
    }
    last_emitted.reset();
    next_metrics =
        metrics_every > 0
            ? (session->events() / metrics_every + 1) *
                  static_cast<uint64_t>(metrics_every)
            : 0;
  }

  void EmitMetrics() {
    for (size_t s = 0; s < streamers.size(); ++s) {
      streamers[s]->Emit(session->engine().shard(static_cast<int32_t>(s)),
                         WallNow());
    }
    last_emitted = session->events();
  }

  /// The exit-time line, unless the stream already ends at this event
  /// count (e.g. --max-events landed on the --metrics-every cadence): a
  /// repeat would only report an empty window.
  void EmitFinalMetrics() {
    if (last_emitted != session->events()) EmitMetrics();
  }

  bool AtCap() { return max_events > 0 && session->events() >= max_events; }

  /// Steps up to `n` events (respecting the --max-events cap), emitting
  /// a metrics line at each multiple of --metrics-every: a run stops at
  /// the next threshold, so the stream does not depend on how the
  /// events were sliced. Returns the number of events dispatched.
  uint64_t Step(uint64_t n) {
    uint64_t total = 0;
    while (total < n && !AtCap()) {
      uint64_t want = n - total;
      if (max_events > 0)
        want = std::min(want, max_events - session->events());
      if (metrics_every > 0)
        want = std::min(want, next_metrics - session->events());
      uint64_t got = session->RunEvents(want);
      total += got;
      if (metrics_every > 0 && session->events() == next_metrics) {
        EmitMetrics();
        next_metrics += static_cast<uint64_t>(metrics_every);
      }
      if (got < want) break;  // calendar drained
    }
    return total;
  }
};

/// One cluster-wide line (live and avg_mpl summed over shards), then one
/// line per shard when there is more than one.
void PrintStats(ServeState& state) {
  rtq::engine::ShardedRtdbs& cluster = state.session->engine();
  rtq::engine::SystemSummary s = cluster.Summarize();
  int64_t live = 0;
  for (int32_t sh = 0; sh < cluster.num_shards(); ++sh) {
    live += cluster.shard(sh).live_queries();
  }
  std::fprintf(stderr,
               "stats: t=%.3f events=%" PRIu64
               " live=%lld completed=%lld missed=%lld miss_ratio=%.4f "
               "avg_mpl=%.2f policy=%s\n",
               cluster.Now(), state.session->events(),
               static_cast<long long>(live),
               static_cast<long long>(s.overall.completions),
               static_cast<long long>(s.overall.misses),
               s.overall.miss_ratio, s.avg_mpl,
               cluster.shard(0).policy().Describe().c_str());
  if (cluster.num_shards() == 1) return;
  for (int32_t sh = 0; sh < cluster.num_shards(); ++sh) {
    rtq::engine::SystemSummary ss = cluster.SummarizeShard(sh);
    std::fprintf(stderr,
                 "stats: shard=%d live=%lld completed=%lld missed=%lld "
                 "miss_ratio=%.4f routed_elsewhere=%lld\n",
                 sh, static_cast<long long>(cluster.shard(sh).live_queries()),
                 static_cast<long long>(ss.overall.completions),
                 static_cast<long long>(ss.overall.misses),
                 ss.overall.miss_ratio,
                 static_cast<long long>(cluster.shard(sh).routed_elsewhere()));
  }
}

/// Executes one parsed command. Returns Ok, or the failure for the
/// caller to report (scripted mode treats any failure as fatal).
Status Execute(ServeState& state, const Command& cmd) {
  switch (cmd.kind) {
    case Command::Kind::kNop:
      return Status::Ok();
    case Command::Kind::kRun: {
      uint64_t got = state.Step(cmd.count);
      if (got < cmd.count)
        return Status::Internal("run: event calendar drained after " +
                                std::to_string(got) + " events");
      return Status::Ok();
    }
    case Command::Kind::kPolicy: {
      rtq::engine::PolicySwapOutcome out =
          state.session->ApplyPolicy(cmd.arg);
      if (!out.status.ok()) return out.status;
      std::fprintf(stderr, "policy: active %s\n", out.active_spec.c_str());
      return Status::Ok();
    }
    case Command::Kind::kScenario: {
      auto canonical = state.session->ApplyScenario(cmd.arg);
      if (!canonical.ok()) return canonical.status();
      std::fprintf(stderr, "scenario: active %s\n",
                   canonical.value().c_str());
      return Status::Ok();
    }
    case Command::Kind::kStats:
      PrintStats(state);
      return Status::Ok();
    case Command::Kind::kMetrics:
      state.EmitMetrics();
      return Status::Ok();
    case Command::Kind::kSnapshot: {
      Snapshot snap = state.session->TakeSnapshot();
      Status st = rtq::serve::WriteSnapshotFile(snap, cmd.arg);
      if (!st.ok()) return st;
      std::fprintf(stderr, "snapshot: wrote %s at event %" PRIu64 "\n",
                   cmd.arg.c_str(), snap.position_events);
      return Status::Ok();
    }
    case Command::Kind::kRestore: {
      auto snap = rtq::serve::ReadSnapshotFile(cmd.arg);
      if (!snap.ok()) return snap.status();
      auto restored = ServeSession::Restore(snap.value());
      if (!restored.ok()) return restored.status();
      state.session = std::move(restored).value();
      state.ResetStreamer();
      std::fprintf(stderr, "restore: %s verified at event %" PRIu64 "\n",
                   cmd.arg.c_str(), state.session->events());
      return Status::Ok();
    }
    case Command::Kind::kQuit:
      state.quit = true;
      return Status::Ok();
  }
  return Status::Internal("unreachable command kind");
}

/// Scripted mode: execute the command file top to bottom. Any parse or
/// execution failure is fatal (deterministic CI behavior).
int RunScript(ServeState& state, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "rtq_serve: cannot open --cmds file %s\n",
                 path.c_str());
    return 2;
  }
  std::string data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);

  size_t pos = 0;
  int line_no = 0;
  while (pos <= data.size() && !state.quit) {
    size_t nl = data.find('\n', pos);
    std::string line = data.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? data.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty() && pos > data.size()) break;

    auto cmd = rtq::serve::ParseCommand(line);
    Status st = cmd.ok() ? Execute(state, cmd.value()) : cmd.status();
    if (!st.ok()) {
      std::fprintf(stderr, "rtq_serve: %s:%d: %s\n", path.c_str(), line_no,
                   st.ToString().c_str());
      return 2;
    }
  }
  return 0;
}

/// Interactive mode: free-run (max speed or paced) while polling stdin
/// for control lines. Command failures are reported and survived — a
/// typo must not take down a long-running server. Exits on `quit`,
/// stdin EOF, the --max-events cap, or a drained calendar.
int RunInteractive(ServeState& state, double pace) {
  std::string pending;
  bool eof = false;
  const double sim_start = state.session->engine().Now();
  const double wall_start = WallNow();

  while (!state.quit) {
    // 1) Step the engine.
    uint64_t stepped = 0;
    if (!state.AtCap()) {
      uint64_t want = kSliceEvents;
      if (pace > 0.0) {
        // Paced: never let the simulated clock outrun
        // sim_start + pace * elapsed wall seconds.
        double target = sim_start + pace * (WallNow() - wall_start);
        if (state.session->engine().Now() >= target) want = 0;
      }
      if (want > 0) stepped = state.Step(want);
      if (want > 0 && stepped == 0) {
        std::fprintf(stderr, "rtq_serve: event calendar drained\n");
        break;
      }
    }
    if (state.AtCap() && eof) break;

    // 2) Poll the control channel. Block only when there is nothing to
    // step (paced and ahead of schedule, or at the event cap).
    if (!eof) {
      struct pollfd pfd;
      pfd.fd = STDIN_FILENO;
      pfd.events = POLLIN;
      int timeout_ms = (stepped == 0 || state.AtCap()) ? 50 : 0;
      int rc = poll(&pfd, 1, timeout_ms);
      if (rc > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
        char buf[4096];
        ssize_t got = read(STDIN_FILENO, buf, sizeof(buf));
        if (got <= 0) {
          eof = true;
          if (state.max_events == 0) break;
        } else {
          pending.append(buf, static_cast<size_t>(got));
        }
      }
      size_t nl;
      while (!state.quit && (nl = pending.find('\n')) != std::string::npos) {
        std::string line = pending.substr(0, nl);
        pending.erase(0, nl + 1);
        auto cmd = rtq::serve::ParseCommand(line);
        Status st = cmd.ok() ? Execute(state, cmd.value()) : cmd.status();
        if (!st.ok())
          std::fprintf(stderr, "rtq_serve: %s\n", st.ToString().c_str());
      }
    } else if (state.AtCap()) {
      break;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  WallNow();  // pin the wall-clock epoch to process start
  rtq::harness::ArgParser args(argc, argv);
  SessionSpec spec;
  spec.workload = args.String("workload", spec.workload);
  spec.policy = args.String("policy", spec.policy);
  spec.seed = static_cast<uint64_t>(args.Int("seed", 42));
  // Clamped, not truncated, so an out-of-range count fails validation.
  spec.shards = static_cast<int32_t>(std::clamp<int64_t>(
      args.Int("shards", 1), 0, std::numeric_limits<int32_t>::max()));
  spec.placement = args.String("placement", spec.placement);
  spec.admission = args.String("admission", spec.admission);
  std::string restore_path = args.String("restore", "");
  std::string cmds_path = args.String("cmds", "");
  double pace = args.Double("pace", 0.0);
  ServeState state;
  state.metrics_every = args.Int("metrics-every", 20000);
  state.max_events = static_cast<uint64_t>(args.Int("max-events", 0));
  std::string bench_json = args.String("bench-json", "");
  Status flag_status = args.Finish();
  if (!flag_status.ok()) {
    std::fprintf(stderr, "rtq_serve: %s\n", flag_status.ToString().c_str());
    return 2;
  }

  if (!restore_path.empty()) {
    auto snap = rtq::serve::ReadSnapshotFile(restore_path);
    if (!snap.ok()) {
      std::fprintf(stderr, "rtq_serve: %s\n", snap.status().ToString().c_str());
      return 2;
    }
    auto restored = ServeSession::Restore(snap.value());
    if (!restored.ok()) {
      std::fprintf(stderr, "rtq_serve: %s\n",
                   restored.status().ToString().c_str());
      return 2;
    }
    state.session = std::move(restored).value();
    std::fprintf(stderr, "rtq_serve: restored %s at event %" PRIu64 "\n",
                 restore_path.c_str(), state.session->events());
  } else {
    auto created = ServeSession::Create(spec);
    if (!created.ok()) {
      std::fprintf(stderr, "rtq_serve: %s\n",
                   created.status().ToString().c_str());
      return 2;
    }
    state.session = std::move(created).value();
  }
  state.ResetStreamer();

  int rc = cmds_path.empty() ? RunInteractive(state, pace)
                             : RunScript(state, cmds_path);

  // Final metrics line so the stream always ends with the exit state.
  if (state.metrics_every > 0) state.EmitFinalMetrics();

  if (rc == 0 && !bench_json.empty()) {
    rtq::harness::BenchJsonEmitter emitter(bench_json);
    rtq::harness::RunResult result;
    result.label = state.session->session_spec().workload;
    rtq::engine::Rtdbs& front = state.session->engine().shard(0);
    result.config = front.config();
    result.summary = state.session->engine().Summarize();
    result.wall_seconds = WallNow();
    emitter.AddResult(result, front.policy().Describe(), /*lambda=*/0.0);
    Status st = emitter.WriteFile(WallNow());
    if (!st.ok()) {
      std::fprintf(stderr, "rtq_serve: %s\n", st.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "rtq_serve: wrote %s\n", emitter.path().c_str());
  }
  return rc;
}
