// Workload changes (paper Section 5.3): the offered class alternates
// between Medium joins (memory-constrained: MinMax territory) and Small
// joins (disk-bound: Max territory) every 2-5 simulated hours on 6 disks.
//
// Regenerates Figures 12-14 (per-interval miss ratios under Max, MinMax,
// PMM) and Figure 15 (PMM's MPL trace across the alternation), and
// reports how many workload changes PMM's detector flagged.
//
// The alternation itself is the scenario engine's "mixshift" generator —
// a scripted per-class rate schedule that reproduces the old hand-rolled
// Activate/Deactivate flips draw-for-draw (pinned by
// tests/test_scenario_equivalence.cc) — so the job body is one plain run
// plus per-interval window summaries.

#include <chrono>

#include "bench_util.h"
#include "workload/trace.h"

namespace {

struct IntervalResult {
  bool medium;
  rtq::engine::ClassSummary summary;
};

}  // namespace

int main() {
  using namespace rtq;
  using namespace rtq::bench;

  Banner("E11-E12: alternating Small/Medium workload (6 disks)",
         "Figures 12, 13, 14, 15 (Section 5.3)");

  const int intervals = 6;
  const double interval_s = harness::ExperimentDuration() / 2.5;
  const std::string scenario =
      "mixshift:interval=" + workload::FormatDouble(interval_s) +
      ",intervals=" + std::to_string(intervals);

  auto policies =
      harness::PoliciesOrDefault({{"max"}, {"minmax"}, {"pmm"}});
  std::vector<std::string> names;
  int pmm_index = -1;
  for (size_t p = 0; p < policies.size(); ++p) {
    names.push_back(harness::PolicyLabel(policies[p]));
    if (policies[p].spec == "pmm") {
      pmm_index = static_cast<int>(p);
    }
  }

  std::vector<harness::RunSpec> specs;
  for (size_t p = 0; p < policies.size(); ++p) {
    specs.push_back({names[p], harness::ScenarioConfig(scenario, policies[p]),
                     intervals * interval_s});
  }

  // Each job writes only its own slot, so no synchronization is needed.
  std::vector<std::vector<IntervalResult>> all(specs.size());

  auto run_scenario = [&](const harness::RunSpec& spec, size_t index) {
    harness::RunResult result;
    result.label = spec.label;
    result.config = spec.config;
    auto t0 = std::chrono::steady_clock::now();
    auto sys = engine::Rtdbs::Create(spec.config);
    RTQ_CHECK_MSG(sys.ok(), sys.status().ToString().c_str());
    engine::Rtdbs& rtdbs = *sys.value();

    rtdbs.RunUntil(spec.duration);
    for (int i = 0; i < intervals; ++i) {
      IntervalResult r;
      r.medium = i % 2 == 0;
      r.summary = engine::MetricsCollector::WindowSummary(
          rtdbs.metrics().records(), i * interval_s, (i + 1) * interval_s,
          /*query_class=*/-1);
      all[index].push_back(r);
    }

    result.summary = rtdbs.Summarize();
    if (rtdbs.pmm() != nullptr) result.pmm_trace = rtdbs.pmm()->trace();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
  };

  auto start = Now();
  std::vector<harness::RunResult> results =
      harness::RunPool(specs, harness::BenchJobs(), run_scenario);
  double wall = SecondsSince(start);

  std::vector<std::string> interval_columns{"interval", "class"};
  for (const std::string& name : names) interval_columns.push_back(name);
  harness::TablePrinter table(interval_columns);
  harness::CsvWriter csv({"interval", "class", "policy", "miss_ratio",
                          "completions"});
  harness::BenchJsonEmitter json("workload_changes");
  json.AddConfig("intervals", std::to_string(intervals));
  json.AddConfig("interval_hours", F(interval_s / 3600.0, 2));
  json.AddConfig("scenario", scenario);

  for (size_t p = 0; p < specs.size(); ++p) {
    for (int i = 0; i < intervals; ++i) {
      csv.AddRow({std::to_string(i), all[p][i].medium ? "Medium" : "Small",
                  names[p], F(all[p][i].summary.miss_ratio, 4),
                  std::to_string(all[p][i].summary.completions)});
    }
    // lambda records the Medium-class rate; the alternation schedule
    // lives under "config".
    json.AddResult(results[p], names[p], 0.07);
  }

  for (int i = 0; i < intervals; ++i) {
    std::vector<std::string> row{std::to_string(i + 1),
                                 all[0][i].medium ? "Medium" : "Small"};
    for (size_t p = 0; p < specs.size(); ++p) {
      row.push_back(Pct(all[p][i].summary.miss_ratio));
    }
    table.AddRow(row);
  }
  std::printf("Figures 12-14: per-interval miss ratios\n");
  table.Print();

  if (pmm_index >= 0) {
    // Figure 15: PMM MPL / mode trace.
    std::printf("\nFigure 15: PMM adaptation across workload changes\n");
    harness::TablePrinter trace({"t(s)", "mode", "target MPL",
                                 "workload change?"});
    int64_t changes = 0;
    for (const auto& pt : results[static_cast<size_t>(pmm_index)].pmm_trace) {
      changes += pt.workload_change;
      trace.AddRow({F(pt.time, 0),
                    pt.mode == core::PmmController::Mode::kMax ? "Max"
                                                               : "MinMax",
                    std::to_string(pt.target_mpl),
                    pt.workload_change ? "YES" : ""});
    }
    trace.Print();
    std::printf(
        "\nPMM detected %lld workload changes over %d alternations\n",
        static_cast<long long>(changes), intervals - 1);
  }
  WriteCsv(csv, "results/workload_changes.csv");
  WriteBenchJson(json, wall);
  return 0;
}
