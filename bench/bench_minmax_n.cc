// MinMax-N sweep (paper Figure 11): miss ratio as a function of the MPL
// limit N at a fixed arrival rate on the 6-disk configuration. The paper
// reports a concave curve whose interior optimum motivates PMM's dynamic
// MPL selection; Max-like behaviour at small N, MinMax at large N.

#include "bench_util.h"

int main() {
  using namespace rtq;
  using namespace rtq::bench;

  Banner("E10: MinMax-N sweep at lambda = 0.07 (6 disks)",
         "Figure 11 (Section 5.2)");

  const double rate = 0.07;

  // The default sweep: MinMax-N for the paper's N values, with
  // unlimited MinMax as the right edge of the spectrum.
  std::vector<engine::PolicyConfig> defaults;
  for (int64_t n : {1, 2, 3, 4, 6, 8, 10, 14, 20}) {
    defaults.push_back({"minmax:" + std::to_string(n)});
  }
  defaults.push_back({"minmax"});
  auto policies = harness::PoliciesOrDefault(defaults);

  std::vector<harness::RunSpec> specs;
  for (const auto& policy : policies) {
    specs.push_back({harness::PolicyLabel(policy),
                     harness::DiskContentionConfig(rate, policy)});
  }

  auto start = Now();
  std::vector<harness::RunResult> results = harness::RunPool(specs);
  double wall = SecondsSince(start);

  harness::TablePrinter table({"N", "miss ratio", "avg MPL", "wait(s)",
                               "exec(s)", "disk util"});
  harness::CsvWriter csv({"N", "miss_ratio", "avg_mpl", "avg_wait",
                          "avg_exec", "avg_disk_util"});
  harness::BenchJsonEmitter json("minmax_n");
  json.AddConfig("lambda_fixed", F(rate, 3));

  for (size_t i = 0; i < results.size(); ++i) {
    const engine::SystemSummary& s = results[i].summary;
    // Derive the N column from the spec: "minmax:5" -> 5, bare
    // "minmax" -> inf; anything else (RTQ_POLICIES override) is shown
    // by its label.
    std::string spec = policies[i].spec;
    std::string n_label, n_csv;
    if (spec == "minmax") {
      n_label = "inf";
      n_csv = "-1";
    } else if (spec.rfind("minmax:", 0) == 0) {
      n_label = n_csv = spec.substr(7);
    } else {
      n_label = n_csv = harness::PolicyLabel(policies[i]);
    }
    table.AddRow({n_label, Pct(s.overall.miss_ratio), F(s.avg_mpl, 2),
                  F(s.overall.avg_wait, 1), F(s.overall.avg_exec, 1),
                  Pct(s.avg_disk_utilization)});
    csv.AddRow({n_csv, F(s.overall.miss_ratio, 4), F(s.avg_mpl, 3),
                F(s.overall.avg_wait, 2), F(s.overall.avg_exec, 2),
                F(s.avg_disk_utilization, 4)});
    json.AddResult(results[i], harness::PolicyLabel(policies[i]), rate);
  }

  table.Print();
  WriteCsv(csv, "results/minmax_n.csv");
  WriteBenchJson(json, wall);
  return 0;
}
