// Scenario sweep: the policy registry against the adversarial arrival
// shapes the scenario engine generates (none of which the paper's
// stationary Poisson grids cover): diurnal load, a flash crowd,
// Pareto-tailed operand sizes, Markov-modulated bursts, and the
// Section 5.3 class alternation as a scripted mix shift.
//
// Every shape's time parameters scale with ExperimentDuration() so its
// features (burst, rate peak, alternation) land inside the horizon at
// any RTQ_SIM_HOURS; the tick cadence scales the same way so the
// time-driven policies (pmm-predict, select) get a full forecasting
// window even at smoke durations. Per point the JSON trajectory also
// records gap_to_oracle — miss ratio minus the clairvoyant oracle-ed
// lane's on the same shape (omitted when RTQ_POLICIES drops the
// oracle). Also renders the diurnal scenario to
// results/sample_diurnal.rtqt — the replayable `.rtqt` form of the
// exact arrival stream the diurnal runs saw.

#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "core/policy_registry.h"
#include "workload/trace.h"

namespace {

/// Index of the oracle-ed lane in `policies`, or -1 when absent.
int OracleIndex(const std::vector<rtq::engine::PolicyConfig>& policies) {
  for (size_t p = 0; p < policies.size(); ++p) {
    auto spec = rtq::core::PolicySpec::Parse(policies[p].spec);
    if (spec.ok() && spec.value().name == "oracle-ed") {
      return static_cast<int>(p);
    }
  }
  return -1;
}

}  // namespace

int main() {
  using namespace rtq;
  using namespace rtq::bench;

  Banner("E16: policy registry vs adversarial arrival scenarios",
         "scenario engine (beyond the paper's stationary grids)");

  const double d = harness::ExperimentDuration();
  using workload::FormatDouble;

  // (short key for labels, registry spec, dominant arrival rate).
  struct ScenarioPoint {
    std::string key;
    std::string spec;
    double lambda;
  };
  const std::vector<ScenarioPoint> scenarios = {
      {"diurnal", "diurnal:period=" + FormatDouble(d / 1.5), 0.07},
      {"flash",
       "flash:at=" + FormatDouble(d / 3.0) + ",dur=" +
           FormatDouble(d / 12.0) + ",decay=" + FormatDouble(d / 24.0),
       0.5},
      {"pareto", "pareto", 0.07},
      {"burst",
       "burst:tlo=" + FormatDouble(d / 12.0) + ",thi=" +
           FormatDouble(d / 36.0),
       0.1},
      {"mixshift", "mixshift:interval=" + FormatDouble(d / 6.0), 0.07},
  };

  auto policies =
      harness::PoliciesOrDefault({{"pmm"},
                                  {"pmm-predict"},
                                  {"select:candidates=pmm+pmm-predict"},
                                  {"max"},
                                  {"pmm-tick"},
                                  {"pmm-class"},
                                  {"edf-shed"},
                                  {"oracle-ed"}});
  std::vector<std::string> names;
  for (const auto& policy : policies)
    names.push_back(harness::PolicyLabel(policy));

  // Compress the tick grid with the horizon (60 s at the 1 h+ defaults,
  // d/60 at smoke) so forecasting windows span the same fraction of the
  // run at any RTQ_SIM_HOURS.
  const double tick = std::min(60.0, d / 60.0);

  std::vector<harness::RunSpec> specs;
  for (const auto& sc : scenarios) {
    for (size_t p = 0; p < policies.size(); ++p) {
      engine::SystemConfig config =
          harness::ScenarioConfig(sc.spec, policies[p]);
      config.mpl_sample_interval = tick;
      specs.push_back({sc.key + "|" + names[p], config});
    }
  }

  auto start = Now();
  std::vector<harness::RunResult> results = harness::RunPool(specs);
  double wall = SecondsSince(start);

  harness::TablePrinter table(harness::PolicyColumns("scenario", policies));
  harness::CsvWriter csv({"scenario", "policy", "miss_ratio", "completions",
                          "avg_mpl", "disk_util", "gap_to_oracle"});
  harness::BenchJsonEmitter json("scenarios");
  json.AddConfig("scenarios", std::to_string(scenarios.size()));

  const int oracle = OracleIndex(policies);
  size_t at = 0;
  for (const auto& sc : scenarios) {
    double oracle_miss =
        oracle >= 0 ? results[at + static_cast<size_t>(oracle)]
                          .summary.overall.miss_ratio
                    : std::nan("");
    std::vector<std::string> row{sc.key};
    for (size_t p = 0; p < policies.size(); ++p, ++at) {
      const harness::RunResult& r = results[at];
      double gap = r.summary.overall.miss_ratio - oracle_miss;
      row.push_back(Pct(r.summary.overall.miss_ratio));
      csv.AddRow({sc.key, names[p], F(r.summary.overall.miss_ratio, 4),
                  std::to_string(r.summary.overall.completions),
                  F(r.summary.avg_mpl, 2),
                  F(r.summary.avg_disk_utilization, 3),
                  std::isfinite(gap) ? F(gap, 4) : std::string("")});
      json.AddResult(r, names[p], sc.lambda, gap);
    }
    table.AddRow(row);
  }
  std::printf("Miss ratio by scenario shape\n");
  table.Print();

  // A replayable sample: the diurnal arrival stream as a `.rtqt` trace.
  // Replaying it (config.trace) reproduces the diurnal rows above
  // bit-identically — the determinism gate tests/test_scenario.cc pins.
  {
    engine::SystemConfig config =
        harness::ScenarioConfig(scenarios[0].spec, policies[0]);
    auto trace = engine::RenderScenarioTrace(config, d);
    RTQ_CHECK_MSG(trace.ok(), trace.status().ToString().c_str());
    const std::string path = "results/sample_diurnal.rtqt";
    Status st = workload::WriteTraceFile(trace.value(), path);
    if (st.ok()) {
      std::printf("\nsample trace written to %s (%zu arrivals)\n",
                  path.c_str(), trace.value().records.size());
    } else {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
    }
  }

  WriteCsv(csv, "results/scenarios.csv");
  WriteBenchJson(json, wall);
  return 0;
}
