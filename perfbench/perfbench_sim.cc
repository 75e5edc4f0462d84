// perfbench_sim: the in-process half of the repo benchmark (README.md).
//
//   perfbench_sim --workload paper|overload|cluster|serve --seed N
//                 --seconds S --trace 0|1
//                 [--serve-workload SPEC --serve-policy SPEC
//                  --serve-events N --flash-at T]
//   perfbench_sim --workload probe --seconds S
//
// A workload is a fixed list of simulation points run one after another
// on one thread ("a pass"). The driver repeats the pass with identical
// inputs until --seconds of host time are used (the last pass may stop
// at a point boundary) and reports each point's mean time over its runs.
// The last stdout line is one JSON object:
//
//   {"attempted":..,"failed":..,"failures":[..],"metrics":{..},"info":{..}}
//
// Host times are scaled by the host-speed probe (HostProbe below);
// `--workload probe` only samples the probe for S seconds and prints
// {"speeds":[..]}.
//
// --trace 0 measures the end-to-end metrics. --trace 1 alternates
// untraced passes with traced ones, in which every event is dispatched by
// its own StepEvent call and timed from here, the policy is wrapped in
// the "timed" policy registered below, and the per-layer counters are read
// through the engine's public accessors. A traced point must end in the
// same state digest as its untraced twin.
//
// `serve` is run here only for its traced per-layer numbers: the same
// session the rtq_serve child runs, built from the same SessionSpec and
// stepped to the same event cap. Its end-to-end numbers come from the
// child process (perfbench/run.py).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "core/memory_policy.h"
#include "core/policy_registry.h"
#include "engine/rtdbs.h"
#include "engine/sharded_rtdbs.h"
#include "harness/paper_experiments.h"
#include "serve/serve_session.h"

namespace {

using namespace rtq;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---------------------------------------------------------------------------
// The timing wrapper policy: "timed:<spec>" builds <spec> through the
// registry and forwards every hook to it, timing each call. Describe()
// is the inner spec, so digests, stats lines and snapshots are unchanged.
// ---------------------------------------------------------------------------

struct PolicyClock {
  int64_t calls = 0;
  int64_t ns = 0;
};
PolicyClock g_policy_clock;

class TimedPolicy final : public core::MemoryPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<core::MemoryPolicy> inner)
      : inner_(std::move(inner)) {}

  Status Attach(const core::PolicyHost& host) override {
    Span span;
    return inner_->Attach(host);
  }
  void OnQueryEvent(const core::QueryEvent& event) override {
    Span span;
    inner_->OnQueryEvent(event);
  }
  void OnTick(SimTime now) override {
    Span span;
    inner_->OnTick(now);
  }
  std::string Describe() const override { return inner_->Describe(); }
  std::string DisplayName() const override { return inner_->DisplayName(); }
  const core::PmmController* pmm_controller() const override {
    return inner_->pmm_controller();
  }

 private:
  struct Span {
    Clock::time_point start = Clock::now();
    ~Span() {
      ++g_policy_clock.calls;
      g_policy_clock.ns += NanosBetween(start, Clock::now());
    }
  };
  std::unique_ptr<core::MemoryPolicy> inner_;
};

RTQ_REGISTER_POLICY(
    "timed", "timed:<spec> — <spec> with every policy hook timed (perfbench)",
    [](const core::PolicySpec& spec)
        -> StatusOr<std::unique_ptr<core::MemoryPolicy>> {
      auto inner = core::PolicyRegistry::Global().Create(spec.args);
      if (!inner.ok()) return inner.status();
      return std::unique_ptr<core::MemoryPolicy>(
          new TimedPolicy(std::move(inner).value()));
    });

// ---------------------------------------------------------------------------
// The host-speed probe. The host's speed swings by up to 2x as other
// tenants load the shared cores and caches (README.md, "Noise"). After
// each point perfbench_sim times a fixed piece of work shaped like the
// simulator's own -- a calendar heap and a hashed table of a few hundred
// KiB, written here so that no change to src/ moves it -- and scales every
// host time of the run by the probe's median speed: timings are reported
// in seconds of a host running at the probe's nominal speed.
// ---------------------------------------------------------------------------

class HostProbe {
 public:
  HostProbe() : table_(kTableSize) {
    for (uint32_t i = 0; i < kEvents; ++i) heap_.push_back({Draw(), i});
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Times one sample; returns the speed it saw, nominal over measured
  /// time (below 1 on a slowed host).
  double Sample() {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      Entry& e = heap_.back();
      uint64_t& slot = table_[(e.second * 2654435761u + acc_) & (kTableSize - 1)];
      slot += e.second;
      acc_ ^= slot;
      e.first += Draw();
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return kNominalSeconds / SecondsBetween(t0, Clock::now());
  }

  /// Samples for about `share` of `seconds` (at least once) into `speeds`.
  void SampleFor(double seconds, double share, std::vector<double>* speeds) {
    const int n = std::max(1, static_cast<int>(share * seconds / kNominalSeconds));
    for (int i = 0; i < n; ++i) speeds->push_back(Sample());
  }

 private:
  using Entry = std::pair<uint64_t, uint32_t>;  // (time, id)
  static constexpr uint32_t kEvents = 2048;
  static constexpr size_t kTableSize = size_t{1} << 15;  // 256 KiB
  static constexpr int kSteps = 6000;
  // About a sample's median time on the host the benchmark was sized on
  // (README.md, "Noise"); it only sets the scale.
  static constexpr double kNominalSeconds = 0.9e-3;

  uint64_t Draw() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_ % 1000000;
  }

  std::vector<Entry> heap_;
  std::vector<uint64_t> table_;
  uint64_t rng_ = 88172645463325252ull;
  uint64_t acc_ = 0;
};

// Share of host time spent probing, taken after each point.
constexpr double kProbeShare = 0.02;

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_workload;
  std::string serve_policy;
  uint64_t serve_events = 0;
  double flash_at = 0.0;
};

struct Point {
  std::string label;
  engine::SystemConfig config;
  engine::ShardConfig shards;  // num_shards == 1: a plain Rtdbs
  SimTime horizon = 0.0;       // simulated seconds; 0 = use max_events
  uint64_t max_events = 0;
};

// Simulated seconds per point. Sized so that the seeded totals
// (miss_ratio) vary little from seed to seed while a 30 s run still
// holds two passes: a pass takes about 12 s (paper), 3 s (overload) and
// 6 s (cluster) on a 4-core x86 box (README.md, "Noise").
constexpr SimTime kPaperHours = 2.0;
constexpr SimTime kOverloadHorizon = 180.0;
constexpr SimTime kClusterHours = 3.0;
// Untraced points run in RunUntil slices of this many simulated seconds
// (event-capped points, i.e. serve, in StepEvent batches of kBatchEvents,
// as rtq_serve steps); in-process `stats` requests are answered between
// them, as rtq_serve answers commands between event batches.
constexpr SimTime kSlice = 10.0;
constexpr uint64_t kBatchEvents = 4096;
// Open-loop period of the in-process `stats` requests.
constexpr double kCtlPeriodSeconds = 0.005;

// Each point of a sweep draws its own stream, so the workload totals
// average over independent points instead of repeating one seed's luck.
uint64_t PointSeed(const Args& args, size_t index) {
  return args.seed * 64 + index;
}

StatusOr<std::vector<Point>> BuildWorkload(const Args& args) {
  std::vector<Point> points;
  const std::string& w = args.workload;
  if (w == "paper") {
    for (double rate : {0.04, 0.05, 0.06, 0.07, 0.08}) {
      for (const char* policy : {"max", "minmax", "prop", "pmm"}) {
        Point p;
        p.label = std::string(policy) + "@" + std::to_string(rate);
        p.config = harness::BaselineConfig(rate, {policy},
                                           PointSeed(args, points.size()));
        p.horizon = kPaperHours * 3600.0;
        points.push_back(std::move(p));
      }
    }
  } else if (w == "overload") {
    for (double rate : {10.0, 30.0}) {
      for (const char* policy : {"max", "minmax", "pmm"}) {
        Point p;
        p.label = std::string(policy) + "@" + std::to_string(rate);
        p.config = harness::BaselineConfig(rate, {policy},
                                           PointSeed(args, points.size()));
        p.horizon = kOverloadHorizon;
        points.push_back(std::move(p));
      }
    }
  } else if (w == "cluster") {
    for (double rate : {0.10, 0.14}) {
      for (const char* policy : {"pmm", "minmax"}) {
        Point p;
        p.label = std::string("s4 skew:hot=0.6 global:mpl=6 ") + policy +
                  "@" + std::to_string(rate);
        p.config = harness::BaselineConfig(rate, {policy},
                                           PointSeed(args, points.size()));
        p.shards.num_shards = 4;
        p.shards.placement = "skew:hot=0.6";
        p.shards.admission = "global:mpl=6";
        p.horizon = kClusterHours * 3600.0;
        points.push_back(std::move(p));
      }
    }
  } else if (w == "serve") {
    serve::SessionSpec spec;
    spec.workload = args.serve_workload;
    spec.policy = args.serve_policy;
    spec.seed = args.seed;
    auto config = serve::ServeSession::BuildConfig(spec);
    if (!config.ok()) return config.status();
    if (args.serve_events == 0)
      return Status::InvalidArgument("serve needs --serve-events");
    Point p;
    p.label = spec.workload + " " + spec.policy;
    p.config = std::move(config).value();
    p.max_events = args.serve_events;
    points.push_back(std::move(p));
  } else {
    return Status::InvalidArgument("unknown workload '" + w + "'");
  }
  return points;
}

// ---------------------------------------------------------------------------
// One engine: a plain Rtdbs or a ShardedRtdbs, seen through its shards.
// ---------------------------------------------------------------------------

class Engine {
 public:
  static StatusOr<std::unique_ptr<Engine>> Create(const Point& point,
                                                  bool timed_policy) {
    engine::SystemConfig config = point.config;
    if (timed_policy) config.policy = {"timed:" + config.policy.spec};
    auto engine = std::unique_ptr<Engine>(new Engine());
    if (point.shards.num_shards > 1) {
      auto cluster = engine::ShardedRtdbs::Create(config, point.shards);
      if (!cluster.ok()) return cluster.status();
      engine->cluster_ = std::move(cluster).value();
      for (int32_t s = 0; s < engine->cluster_->num_shards(); ++s)
        engine->shards_.push_back(&engine->cluster_->shard(s));
    } else {
      auto single = engine::Rtdbs::Create(config);
      if (!single.ok()) return single.status();
      engine->single_ = std::move(single).value();
      engine->shards_.push_back(engine->single_.get());
    }
    return engine;
  }

  const std::vector<engine::Rtdbs*>& shards() const { return shards_; }
  const core::ShardCoordinator* coordinator() const {
    return cluster_ ? cluster_->coordinator() : nullptr;
  }

  void Start() { cluster_ ? cluster_->Start() : single_->Start(); }
  void RunUntil(SimTime t) {
    cluster_ ? cluster_->RunUntil(t) : single_->RunUntil(t);
  }
  bool Step() { return cluster_ ? cluster_->StepEvent() : single_->StepEvent(); }

  /// Time of the earliest pending event across shards (+inf when none).
  SimTime NextEventTime() const {
    SimTime best = std::numeric_limits<SimTime>::infinity();
    for (const engine::Rtdbs* s : shards_) {
      const sim::EventQueue& q = s->simulator().queue();
      if (!q.Empty()) best = std::min(best, q.PeekTime());
    }
    return best;
  }
  SimTime Now() const {
    return cluster_ ? cluster_->Now() : single_->simulator().Now();
  }
  uint64_t Events() const {
    return cluster_ ? cluster_->events_dispatched()
                    : single_->simulator().events_dispatched();
  }
  engine::SystemSummary Summarize() const {
    return cluster_ ? cluster_->Summarize() : single_->Summarize();
  }
  std::vector<std::string> Digest() const {
    std::vector<std::string> lines;
    cluster_ ? cluster_->AppendStateDigest(&lines)
             : single_->AppendStateDigest(&lines);
    return lines;
  }

  // Sums over shards of the counters the event classifier and the
  // gauges watch.
  int64_t Generated() const {
    return Sum([](engine::Rtdbs& s) { return s.arrivals().generated(); });
  }
  int64_t Finished() const {
    return Sum([](engine::Rtdbs& s) { return s.metrics().records().size(); });
  }
  int64_t Recomputes() const {
    return Sum([](engine::Rtdbs& s) { return s.memory_manager().recomputes(); });
  }
  int64_t Pending() const {
    return Sum([](engine::Rtdbs& s) { return s.simulator().pending_events(); });
  }
  int64_t Live() const {
    return Sum([](engine::Rtdbs& s) { return s.live_queries(); });
  }
  int64_t Admitted() const {
    return Sum(
        [](engine::Rtdbs& s) { return s.memory_manager().admitted_count(); });
  }

 private:
  Engine() = default;

  template <typename F>
  int64_t Sum(F f) const {
    int64_t n = 0;
    for (engine::Rtdbs* s : shards_) n += static_cast<int64_t>(f(*s));
    return n;
  }
  std::unique_ptr<engine::Rtdbs> single_;
  std::unique_ptr<engine::ShardedRtdbs> cluster_;
  std::vector<engine::Rtdbs*> shards_;
};

// ---------------------------------------------------------------------------
// Measurements.
// ---------------------------------------------------------------------------

struct Gauges {
  int64_t samples = 0;
  double pending_sum = 0.0;
  int64_t pending_max = 0;
  double live_sum = 0.0;
  int64_t live_max = 0;
  double admitted_sum = 0.0;
  // serve: the live-set peak before the flash crowd starts.
  int64_t live_max_before_flash = 0;

  void Sample(const Engine& e, SimTime flash_at) {
    const int64_t pending = e.Pending();
    const int64_t live = e.Live();
    ++samples;
    pending_sum += static_cast<double>(pending);
    pending_max = std::max(pending_max, pending);
    live_sum += static_cast<double>(live);
    live_max = std::max(live_max, live);
    admitted_sum += static_cast<double>(e.Admitted());
    if (flash_at > 0.0 && e.Now() < flash_at)
      live_max_before_flash = std::max(live_max_before_flash, live);
  }
  double Mean(double sum) const {
    return samples > 0 ? sum / static_cast<double>(samples) : 0.0;
  }
};

// Per-event-kind host time of the traced StepEvent calls.
struct KindClock {
  int64_t n = 0;
  int64_t ns = 0;
  double Mean() const {
    return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
  }
};

// Deterministic counters read after a point through public accessors.
struct Counters {
  double events = 0, scheduled = 0, pending_end = 0;
  double recycled = 0, records = 0, misses = 0;
  double cpu_jobs = 0, cpu_preemptions = 0, cpu_util_sum = 0;
  double disk_requests = 0, disk_pages = 0, disk_cache_hits = 0;
  double disk_util_sum = 0, disk_util_max = 0;
  double engines = 0;
  double lru_hits = 0, lru_misses = 0;
  double mm_changes = 0, mm_recomputes = 0;
  double gate_refusals = 0, gate_high_water = 0;
  double adaptations = 0;
  double pages_read = 0, pages_written = 0, fluctuations = 0;
  double arrivals = 0, routed_elsewhere = 0;
};

// Reads the CPU and disk counters off an engine's digest lines:
//   cpu <pending> <completed> <preemptions> <busy_s>
//   disk <d> <head> <busy> <queue> <busy_s> <requests> <pages> <cache_hits>
void AddModelCounters(const std::vector<std::string>& digest, Counters* c) {
  for (const std::string& line : digest) {
    double a = 0, b = 0, h = 0;
    if (std::sscanf(line.c_str(), "cpu %*d %lf %lf", &a, &b) == 2) {
      c->cpu_jobs += a;
      c->cpu_preemptions += b;
    } else if (std::sscanf(line.c_str(), "disk %*d %*d %*d %*d %*s %lf %lf %lf",
                           &a, &b, &h) == 3) {
      c->disk_requests += a;
      c->disk_pages += b;
      c->disk_cache_hits += h;
    }
  }
}

void AddCounters(Engine& e, Counters* c) {
  for (engine::Rtdbs* s : e.shards()) {
    const sim::Simulator& sim = s->simulator();
    c->events += static_cast<double>(sim.events_dispatched());
    c->scheduled += static_cast<double>(sim.queue().total_scheduled());
    c->pending_end += static_cast<double>(sim.pending_events());
    c->recycled += static_cast<double>(s->runtimes_recycled());

    std::vector<std::string> digest;
    s->AppendStateDigest(&digest);
    AddModelCounters(digest, c);
    engine::SystemSummary sum = s->Summarize();
    c->engines += 1;
    c->cpu_util_sum += sum.cpu_utilization;
    c->disk_util_sum += sum.avg_disk_utilization;
    c->disk_util_max = std::max(c->disk_util_max, sum.max_disk_utilization);

    const buffer::LruCache& lru = s->buffer_pool().page_cache();
    c->lru_hits += static_cast<double>(lru.hits());
    c->lru_misses += static_cast<double>(lru.misses());

    const auto& records = s->metrics().records();
    const int64_t accepted = s->arrivals().generated() - s->routed_elsewhere();
    c->mm_changes +=
        static_cast<double>(accepted) + static_cast<double>(records.size());
    c->mm_recomputes += static_cast<double>(s->memory_manager().recomputes());
    if (const core::PmmController* pmm = s->pmm())
      c->adaptations += static_cast<double>(pmm->trace().size());
    c->records += static_cast<double>(records.size());
    for (const engine::CompletionRecord& r : records) {
      if (r.info.missed) c->misses += 1;
      c->pages_read += static_cast<double>(r.pages_read);
      c->pages_written += static_cast<double>(r.pages_written);
      c->fluctuations += static_cast<double>(r.mem_fluctuations);
    }
    c->arrivals += static_cast<double>(s->arrivals().generated());
    c->routed_elsewhere += static_cast<double>(s->routed_elsewhere());
  }
  if (const core::ShardCoordinator* coord = e.coordinator()) {
    c->gate_refusals += static_cast<double>(coord->refusals());
    c->gate_high_water =
        std::max(c->gate_high_water, static_cast<double>(coord->high_water()));
  }
}

// The conservation checks every finished point must pass; returns one
// message per violation.
std::vector<std::string> CheckPoint(const Point& point, Engine& e) {
  std::vector<std::string> errors;
  int64_t accepted_sum = 0;
  for (size_t i = 0; i < e.shards().size(); ++i) {
    engine::Rtdbs* s = e.shards()[i];
    const std::string where = point.label + " shard " + std::to_string(i);
    const int64_t accepted = s->arrivals().generated() - s->routed_elsewhere();
    const int64_t finished =
        static_cast<int64_t>(s->metrics().records().size());
    accepted_sum += accepted;
    if (finished + s->live_queries() != accepted)
      errors.push_back(where + ": completions+misses+live " +
                       std::to_string(finished + s->live_queries()) +
                       " != accepted arrivals " + std::to_string(accepted));
    const core::MemoryManager& mm = s->memory_manager();
    if (mm.allocated_pages() > mm.total_pages())
      errors.push_back(where + ": allocated pages exceed the pool");
  }
  // Every shard draws the whole arrival stream; after a horizon-aligned
  // run each has drawn the same arrivals, and exactly one accepted each.
  if (e.shards().size() > 1) {
    const int64_t generated = e.shards()[0]->arrivals().generated();
    for (engine::Rtdbs* s : e.shards()) {
      if (s->arrivals().generated() != generated)
        errors.push_back(point.label + ": shards drew different streams");
    }
    if (accepted_sum != generated)
      errors.push_back(point.label + ": sum of accepted " +
                       std::to_string(accepted_sum) + " != generated " +
                       std::to_string(generated));
  }
  return errors;
}

// The line rtq_serve's `stats` prints for an unsharded session; for a
// cluster the same fields summed over shards. Returns false when the
// summary is out of range.
bool StatsLine(const Engine& e, std::string* line) {
  engine::SystemSummary s = e.Summarize();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "stats: t=%.3f events=%" PRIu64
                " live=%lld completed=%lld missed=%lld miss_ratio=%.4f "
                "avg_mpl=%.2f policy=%s",
                e.Now(), e.Events(), static_cast<long long>(e.Live()),
                static_cast<long long>(s.overall.completions),
                static_cast<long long>(s.overall.misses),
                s.overall.miss_ratio, s.avg_mpl,
                e.shards()[0]->policy().Describe().c_str());
  *line = buf;
  return s.overall.miss_ratio >= 0.0 && s.overall.miss_ratio <= 1.0 &&
         s.overall.misses <= s.overall.completions;
}

// Open-loop in-process `stats` requests: one falls due every
// kCtlPeriodSeconds of host time and is answered between slices with the
// line rtq_serve's `stats` prints. Latency runs from when the request was
// due to when its reply is formatted.
class CtlClock {
 public:
  explicit CtlClock(Clock::time_point start) : next_due_(start) {}

  /// Answers every request due by now; returns false if a reply was
  /// malformed.
  bool Service(const Engine& e, int64_t* answered) {
    bool ok = true;
    Clock::time_point now = Clock::now();
    while (next_due_ <= now) {
      if (!StatsLine(e, &reply_)) ok = false;
      now = Clock::now();
      latencies_ms_.push_back(SecondsBetween(next_due_, now) * 1e3);
      next_due_ += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kCtlPeriodSeconds));
      ++*answered;
    }
    return ok;
  }
  std::vector<double>& latencies_ms() { return latencies_ms_; }

 private:
  Clock::time_point next_due_;
  std::vector<double> latencies_ms_;
  std::string reply_;
};

struct Pass {
  bool traced = false;
  double run_s = 0.0;
  std::vector<double> point_setup_s;  // Create + Start, per point
  std::vector<double> point_run_s;    // host seconds in the engine, per point
  std::vector<double> point_wall_s;   // everything, per point
  std::vector<double> speeds;         // host-speed probe samples
  uint64_t events = 0;
  std::vector<double> responses;  // simulated seconds
  std::vector<uint64_t> digests;  // one per point
  Counters counters;
  Gauges gauges;
  KindClock arrival, finish, realloc, service;
  double policy_calls = 0.0, policy_ns = 0.0;  // traced passes only
  std::vector<double> ctl_ms;  // untraced passes only
  double wall_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::string final_stats;  // rtq_serve-format stats line of the last point
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::max<size_t>(rank, 1);
  return sorted[std::min(rank, sorted.size()) - 1];
}

uint64_t HashLines(const std::vector<std::string>& lines) {
  Fnv1a64 h;
  for (const std::string& l : lines) {
    for (char ch : l) h.Update64(static_cast<uint8_t>(ch));
    h.Update64('\n');
  }
  return h.digest();
}

// Runs one point untraced, answering due `stats` requests between
// slices. Only the engine calls count toward run_s.
void RunUntraced(const Point& point, Engine& e, CtlClock* ctl, Pass* pass,
                 SimTime flash_at) {
  for (;;) {
    const bool done = point.horizon > 0.0 ? e.Now() >= point.horizon
                                          : e.Events() >= point.max_events;
    if (done) break;
    bool more = true;
    auto t0 = Clock::now();
    if (point.horizon > 0.0) {
      e.RunUntil(std::min(point.horizon, e.Now() + kSlice));
    } else {
      const uint64_t want =
          std::min<uint64_t>(kBatchEvents, point.max_events - e.Events());
      for (uint64_t i = 0; i < want && more; ++i) more = e.Step();
    }
    pass->run_s += SecondsBetween(t0, Clock::now());
    pass->gauges.Sample(e, flash_at);
    if (!ctl->Service(e, &pass->attempted)) {
      ++pass->failed;
      pass->failures.push_back(point.label + ": malformed stats reply");
    }
    if (!more) break;
  }
}

// Runs one point traced: one StepEvent per call, each timed and classed
// by what it changed in public state.
void RunTraced(const Point& point, Engine& e, Pass* pass, SimTime flash_at) {
  for (;;) {
    if (point.horizon > 0.0) {
      if (e.NextEventTime() > point.horizon) break;
    } else if (e.Events() >= point.max_events) {
      break;
    }
    const int64_t gen0 = e.Generated();
    const int64_t fin0 = e.Finished();
    const int64_t rec0 = e.Recomputes();
    auto t0 = Clock::now();
    const bool more = e.Step();
    auto t1 = Clock::now();
    const int64_t ns = NanosBetween(t0, t1);
    pass->run_s += SecondsBetween(t0, t1);
    KindClock* kind = &pass->service;
    if (e.Recomputes() != rec0) {
      kind = &pass->realloc;
    } else if (e.Generated() != gen0) {
      kind = &pass->arrival;
    } else if (e.Finished() != fin0) {
      kind = &pass->finish;
    }
    ++kind->n;
    kind->ns += ns;
    pass->gauges.Sample(e, flash_at);
    if (!more) break;
  }
  // Align the clocks to the horizon exactly as the untraced RunUntil
  // does; every remaining event lies beyond it, so nothing dispatches.
  if (point.horizon > 0.0) e.RunUntil(point.horizon);
}

// Runs the points in order. Given a `reference` pass, stops before the
// first point that would not finish by `deadline` at the reference's pace.
Pass RunPass(const std::vector<Point>& points, bool traced, SimTime flash_at,
             const Pass* reference, Clock::time_point deadline,
             HostProbe* probe) {
  Pass pass;
  pass.traced = traced;
  const auto start = Clock::now();
  g_policy_clock = PolicyClock{};
  CtlClock ctl(start);
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& point = points[i];
    auto t0 = Clock::now();
    if (reference != nullptr &&
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(reference->point_wall_s[i])) >
            deadline)
      break;
    ++pass.attempted;
    auto created = Engine::Create(point, traced);
    if (!created.ok()) {
      ++pass.failed;
      pass.failures.push_back(point.label + ": " +
                              created.status().ToString());
      pass.digests.push_back(0);
      pass.point_setup_s.push_back(0.0);
      pass.point_run_s.push_back(0.0);
      pass.point_wall_s.push_back(SecondsBetween(t0, Clock::now()));
      continue;
    }
    std::unique_ptr<Engine> e = std::move(created).value();
    e->Start();
    pass.point_setup_s.push_back(SecondsBetween(t0, Clock::now()));

    const uint64_t events0 = e->Events();
    const double run0 = pass.run_s;
    if (traced) {
      RunTraced(point, *e, &pass, flash_at);
    } else {
      RunUntraced(point, *e, &ctl, &pass, flash_at);
    }
    pass.events += e->Events() - events0;
    pass.point_run_s.push_back(pass.run_s - run0);

    std::vector<std::string> errors = CheckPoint(point, *e);
    if (!errors.empty()) {
      ++pass.failed;
      pass.failures.insert(pass.failures.end(), errors.begin(), errors.end());
    }
    pass.digests.push_back(HashLines(e->Digest()));
    AddCounters(*e, &pass.counters);
    for (engine::Rtdbs* s : e->shards()) {
      for (const engine::CompletionRecord& r : s->metrics().records())
        pass.responses.push_back(r.info.finish - r.info.arrival);
    }
    if (point.max_events > 0) StatsLine(*e, &pass.final_stats);
    pass.point_wall_s.push_back(SecondsBetween(t0, Clock::now()));
    e.reset();
    probe->SampleFor(pass.point_wall_s.back(), kProbeShare, &pass.speeds);
  }
  pass.ctl_ms = std::move(ctl.latencies_ms());
  pass.policy_calls = static_cast<double>(g_policy_clock.calls);
  pass.policy_ns = static_cast<double>(g_policy_clock.ns);
  pass.wall_s = SecondsBetween(start, Clock::now());
  return pass;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    if (!body_.empty()) body_ += ",";
    body_ += JsonString(name) + ":{\"value\":" + buf +
             ",\"unit\":" + JsonString(unit) + "}";
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The host's speed switches between a fast and a slow mode many times a
// second as other tenants come and go (README.md, "Noise"). A median
// over the few passes of a run flips between the modes; the mean tracks
// the share of time spent in each. So run_s sums each point's mean
// engine time over the passes that ran it, and ctl_p50_ms pools every
// `stats` request of the run. The share itself drifts over minutes, so
// every timing is then scaled by the run's median probe speed. (The
// tail reads how long the host stalled the process, so it is a
// traced-run number, ctl.p99_ms.)
//
// Every `stats` latency of the passes, sorted.
std::vector<double> PooledCtl(const std::vector<Pass>& passes) {
  std::vector<double> ctl;
  for (const Pass& p : passes)
    ctl.insert(ctl.end(), p.ctl_ms.begin(), p.ctl_ms.end());
  std::sort(ctl.begin(), ctl.end());
  return ctl;
}

// The median speed the probe saw over the passes.
double HostSpeed(const std::vector<Pass>& passes) {
  std::vector<double> speeds;
  for (const Pass& p : passes)
    speeds.insert(speeds.end(), p.speeds.begin(), p.speeds.end());
  return Median(speeds);
}

void AddEndToEnd(const std::vector<Pass>& passes, Metrics* m) {
  const Pass& first = passes.front();
  const double speed = HostSpeed(passes);
  // Setup is a few milliseconds a pass, so a point's median over passes
  // keeps one slow moment out of it.
  double run_s = 0.0, setup_s = 0.0;
  for (size_t i = 0; i < first.point_run_s.size(); ++i) {
    std::vector<double> times, setups;
    for (const Pass& p : passes) {
      if (i >= p.point_run_s.size()) continue;
      times.push_back(p.point_run_s[i]);
      setups.push_back(p.point_setup_s[i]);
    }
    double sum = 0.0;
    for (double t : times) sum += t;
    run_s += sum / static_cast<double>(times.size());
    setup_s += Median(setups);
  }
  run_s *= speed;
  setup_s *= speed;
  const std::vector<double> ctl = PooledCtl(passes);
  std::vector<double> responses = first.responses;
  std::sort(responses.begin(), responses.end());
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);

  m->Add("events_per_s", Ratio(static_cast<double>(first.events), run_s),
         "events/s");
  m->Add("run_s", run_s, "s");
  m->Add("setup_s", setup_s, "s");
  m->Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  m->Add("miss_ratio", Ratio(first.counters.misses, first.counters.records),
         "ratio");
  m->Add("response_p50_s", Percentile(responses, 0.50), "sim_s");
  m->Add("response_p99_s", Percentile(responses, 0.99), "sim_s");
  m->Add("ctl_p50_ms", Percentile(ctl, 0.50) * speed, "ms");
}

void AddPerLayer(const std::vector<Pass>& traced,
                 const std::vector<Pass>& untraced, Metrics* m) {
  const Pass& t = traced.front();
  const Counters& c = t.counters;
  const Gauges& g = t.gauges;
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const Pass& p : traced) v.push_back(field(p));
    return Median(v);
  };

  m->Add("sim.events", c.events, "count");
  m->Add("sim.scheduled", c.scheduled, "count");
  m->Add("sim.cancelled_ratio",
         Ratio(c.scheduled - c.events - c.pending_end, c.scheduled), "ratio");
  m->Add("sim.pending_mean", g.Mean(g.pending_sum), "events");
  m->Add("sim.pending_max", static_cast<double>(g.pending_max), "events");

  m->Add("engine.arrival_ns", median_of([](const Pass& p) { return p.arrival.Mean(); }), "ns");
  m->Add("engine.arrival_n", static_cast<double>(t.arrival.n), "count");
  m->Add("engine.finish_ns", median_of([](const Pass& p) { return p.finish.Mean(); }), "ns");
  m->Add("engine.finish_n", static_cast<double>(t.finish.n), "count");
  m->Add("engine.realloc_ns", median_of([](const Pass& p) { return p.realloc.Mean(); }), "ns");
  m->Add("engine.realloc_n", static_cast<double>(t.realloc.n), "count");
  m->Add("engine.service_ns", median_of([](const Pass& p) { return p.service.Mean(); }), "ns");
  m->Add("engine.service_n", static_cast<double>(t.service.n), "count");
  m->Add("engine.runtimes_recycled", c.recycled, "count");
  m->Add("engine.records", c.records, "count");

  m->Add("model.cpu.jobs", c.cpu_jobs, "count");
  m->Add("model.cpu.preemptions", c.cpu_preemptions, "count");
  m->Add("model.cpu.util", Ratio(c.cpu_util_sum, c.engines), "ratio");
  m->Add("model.disk.requests", c.disk_requests, "count");
  m->Add("model.disk.pages", c.disk_pages, "count");
  m->Add("model.disk.cache_hit_ratio", Ratio(c.disk_cache_hits, c.disk_requests), "ratio");
  m->Add("model.disk.util_mean", Ratio(c.disk_util_sum, c.engines), "ratio");
  m->Add("model.disk.util_max", c.disk_util_max, "ratio");

  m->Add("buffer.lru.lookups", c.lru_hits + c.lru_misses, "count");
  m->Add("buffer.lru.hit_ratio", Ratio(c.lru_hits, c.lru_hits + c.lru_misses), "ratio");

  m->Add("core.mm.changes", c.mm_changes, "count");
  m->Add("core.mm.recomputes", c.mm_recomputes, "count");
  m->Add("core.mm.recompute_ratio", Ratio(c.mm_recomputes, c.mm_changes), "ratio");
  m->Add("core.mm.live_mean", g.Mean(g.live_sum), "queries");
  m->Add("core.mm.live_max", static_cast<double>(g.live_max), "queries");
  m->Add("core.mm.admitted_mean", g.Mean(g.admitted_sum), "queries");
  m->Add("core.gate.refusals", c.gate_refusals, "count");
  m->Add("core.gate.high_water", c.gate_high_water, "queries");

  m->Add("policy.calls", median_of([](const Pass& p) { return p.policy_calls; }), "count");
  m->Add("policy.ns_per_call",
         median_of([](const Pass& p) { return Ratio(p.policy_ns, p.policy_calls); }),
         "ns");
  m->Add("policy.adaptations", c.adaptations, "count");

  m->Add("exec.pages_read", c.pages_read, "pages");
  m->Add("exec.pages_written", c.pages_written, "pages");
  m->Add("exec.fluctuations_per_query", Ratio(c.fluctuations, c.records), "count");

  m->Add("workload.arrivals", c.arrivals, "count");
  m->Add("workload.routed_elsewhere", c.routed_elsewhere, "count");

  const double traced_eps = median_of([](const Pass& p) {
    return Ratio(static_cast<double>(p.events), p.run_s);
  });
  std::vector<double> plain;
  for (const Pass& p : untraced)
    plain.push_back(Ratio(static_cast<double>(p.events), p.run_s));
  m->Add("host.trace_overhead", Ratio(traced_eps, Median(plain)), "ratio");
  m->Add("host.speed", HostSpeed(untraced), "ratio");
  m->Add("ctl.p99_ms", Percentile(PooledCtl(untraced), 0.99), "ms");
}

// Fails the run when a workload's distinguishing mechanism did not fire,
// so no workload silently stops measuring what it claims to.
std::string HonestyError(const std::string& workload, const Pass& pass) {
  const Gauges& g = pass.gauges;
  const Counters& c = pass.counters;
  if (workload == "paper" && g.Mean(g.pending_sum) > 64.0)
    return "paper: the calendar averaged " +
           std::to_string(g.Mean(g.pending_sum)) +
           " pending events; the small-N regime is gone";
  if (workload == "overload" && g.live_max < 1000)
    return "overload: live set peaked at " + std::to_string(g.live_max) +
           " queries, below 1000";
  if (workload == "cluster" &&
      (c.gate_refusals <= 0.0 || c.routed_elsewhere <= 0.0))
    return "cluster: the global gate refused " +
           std::to_string(c.gate_refusals) + " and placement routed away " +
           std::to_string(c.routed_elsewhere) + " arrivals";
  if (workload == "serve" &&
      g.live_max < 5 * std::max<int64_t>(g.live_max_before_flash, 1))
    return "serve: the flash crowd moved the live set only from " +
           std::to_string(g.live_max_before_flash) + " to " +
           std::to_string(g.live_max);
  return "";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  auto take = [&](const char* key, std::string* out) {
    auto it = kv.find(key);
    if (it == kv.end()) return;
    *out = it->second;
    kv.erase(it);
  };
  std::string seed, seconds, trace, events, flash_at;
  take("workload", &args->workload);
  take("seed", &seed);
  take("seconds", &seconds);
  take("trace", &trace);
  take("serve-workload", &args->serve_workload);
  take("serve-policy", &args->serve_policy);
  take("serve-events", &events);
  take("flash-at", &flash_at);
  if (!kv.empty() || args->workload.empty()) return false;
  if (!seed.empty()) args->seed = std::strtoull(seed.c_str(), nullptr, 10);
  if (!seconds.empty()) args->seconds = std::strtod(seconds.c_str(), nullptr);
  args->trace = trace == "1";
  if (!events.empty())
    args->serve_events = std::strtoull(events.c_str(), nullptr, 10);
  if (!flash_at.empty()) args->flash_at = std::strtod(flash_at.c_str(), nullptr);
  return args->seconds >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_sim --workload W --seed N --seconds S "
                 "--trace 0|1 [--serve-workload SPEC --serve-policy SPEC "
                 "--serve-events N --flash-at T]\n");
    return 2;
  }
  if (args.workload == "probe") {
    // For run.py's serve workload, whose timings come from a child.
    std::vector<double> speeds;
    HostProbe().SampleFor(args.seconds, 1.0, &speeds);
    std::string list;
    for (double v : speeds) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.17g", list.empty() ? "" : ",", v);
      list += buf;
    }
    std::printf("{\"speeds\":[%s]}\n", list.c_str());
    return 0;
  }
  auto built = BuildWorkload(args);
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench_sim: %s\n",
                 built.status().ToString().c_str());
    return 2;
  }
  const std::vector<Point> points = std::move(built).value();
  HostProbe probe;

  // Repeat the pass until --seconds are used; at least one whole pass of
  // each kind runs (--seconds 0 asks for exactly that). Untraced, the last
  // pass stops at the last point that fits; traced, only whole passes
  // run, alternating with untraced ones.
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<Pass> untraced, traced;
  double last_wall = 0.0;
  for (;;) {
    const double elapsed = SecondsBetween(start, Clock::now());
    const bool floor_met =
        !untraced.empty() && (!args.trace || !traced.empty());
    if (floor_met && args.trace && elapsed + last_wall > args.seconds) break;
    const bool run_traced = args.trace && traced.size() < untraced.size();
    const Pass* reference =
        args.trace || untraced.empty() ? nullptr : &untraced.front();
    Pass pass = RunPass(points, run_traced, args.flash_at, reference, deadline,
                        &probe);
    last_wall = pass.wall_s;
    const bool partial = pass.digests.size() < points.size();
    if (!pass.digests.empty())
      (run_traced ? traced : untraced).push_back(std::move(pass));
    if (partial) break;
  }

  // Every pass, traced or not, must reproduce the first pass point for
  // point: the same seed gives the same trajectory, and tracing does not
  // perturb it. The digest covers the event count and every completion
  // and miss, so equal digests mean equal miss_ratio and sim.events.
  int64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const Pass& reference = untraced.front();
  for (const std::vector<Pass>* group : {&untraced, &traced}) {
    for (const Pass& pass : *group) {
      attempted += pass.attempted;
      failed += pass.failed;
      failures.insert(failures.end(), pass.failures.begin(),
                      pass.failures.end());
      for (size_t i = 0; i < pass.digests.size(); ++i) {
        if (pass.digests[i] == reference.digests[i]) continue;
        ++failed;
        failures.push_back(points[i].label + ": " +
                           (pass.traced ? "traced" : "repeated") +
                           " pass ended in a different state digest");
      }
    }
  }

  const Pass& gauge_pass = args.trace ? traced.front() : untraced.front();
  const std::string dishonest = HonestyError(args.workload, gauge_pass);
  if (!dishonest.empty()) {
    std::fprintf(stderr, "perfbench_sim: %s\n", dishonest.c_str());
    return 3;
  }

  Metrics metrics;
  if (args.trace) {
    AddPerLayer(traced, untraced, &metrics);
  } else {
    AddEndToEnd(untraced, &metrics);
  }

  std::string failure_json;
  for (size_t i = 0; i < failures.size() && i < 10; ++i) {
    if (i > 0) failure_json += ",";
    failure_json += JsonString(failures[i]);
  }
  std::printf(
      "{\"attempted\":%lld,\"failed\":%lld,\"failures\":[%s],"
      "\"metrics\":%s,\"info\":{\"points\":%zu,\"passes\":%zu,"
      "\"traced_passes\":%zu,\"host_speed\":%.6f,\"final_stats\":%s}}\n",
      static_cast<long long>(attempted), static_cast<long long>(failed),
      failure_json.c_str(), metrics.Json().c_str(), points.size(),
      untraced.size(), traced.size(), HostSpeed(untraced),
      JsonString(reference.final_stats).c_str());
  return 0;
}
