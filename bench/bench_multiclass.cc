// Multiclass workload (paper Section 5.6): Medium joins at a fixed 0.065
// q/s plus Small joins whose rate sweeps from 0 to 1.2 q/s, on 12 disks.
//
// Regenerates Figure 17 (system miss ratio: Max, MinMax, PMM) and
// Figure 18 (PMM's per-class miss ratios — the bias the paper observes:
// as the Small class dominates, PMM drifts toward Max mode and the
// Medium class suffers disproportionately).

#include "bench_util.h"

int main() {
  using namespace rtq;
  using namespace rtq::bench;

  Banner("E15-E16: multiclass workload (12 disks)",
         "Figures 17, 18 (Section 5.6)");

  const std::vector<double> small_rates = {0.0, 0.2, 0.4, 0.6, 0.8,
                                           1.0, 1.2};
  auto policies =
      harness::PoliciesOrDefault({{"max"}, {"minmax"}, {"pmm"}});
  bool have_pmm = false;
  for (const auto& policy : policies) {
    have_pmm = have_pmm || policy.spec == "pmm";
  }

  std::vector<harness::RunSpec> specs;
  for (double rate : small_rates) {
    for (const auto& policy : policies) {
      specs.push_back({harness::PolicyLabel(policy) + " @ small " +
                           F(rate, 2),
                       harness::MulticlassConfig(rate, policy)});
    }
  }

  auto start = Now();
  std::vector<harness::RunResult> results = harness::RunPool(specs);
  double wall = SecondsSince(start);

  harness::TablePrinter fig17(
      harness::PolicyColumns("small rate", policies));
  harness::TablePrinter fig18({"small rate", "PMM Medium", "PMM Small",
                               "PMM system"});
  harness::CsvWriter csv({"small_rate", "policy", "system_miss",
                          "medium_miss", "small_miss"});
  harness::BenchJsonEmitter json("multiclass");
  json.AddConfig("medium_rate_fixed", F(0.065, 3));

  size_t i = 0;
  for (double rate : small_rates) {
    std::vector<std::string> r17{F(rate, 2)};
    std::vector<std::string> r18{F(rate, 2)};
    for (size_t p = 0; p < policies.size(); ++p) {
      const engine::SystemSummary& s = results[i].summary;
      r17.push_back(Pct(s.overall.miss_ratio));
      double medium = s.per_class.empty() ? 0.0
                                          : s.per_class[0].miss_ratio;
      double small =
          s.per_class.size() > 1 ? s.per_class[1].miss_ratio : 0.0;
      csv.AddRow({F(rate, 2), harness::PolicyLabel(policies[p]),
                  F(s.overall.miss_ratio, 4), F(medium, 4), F(small, 4)});
      json.AddResult(results[i], harness::PolicyLabel(policies[p]), rate);
      if (policies[p].spec == "pmm") {
        r18.push_back(Pct(medium));
        r18.push_back(rate > 0.0 ? Pct(small) : std::string("-"));
        r18.push_back(Pct(s.overall.miss_ratio));
      }
      ++i;
    }
    fig17.AddRow(r17);
    fig18.AddRow(r18);
  }
  std::printf("Figure 17: system miss ratio\n");
  fig17.Print();
  if (have_pmm) {
    std::printf("\nFigure 18: PMM per-class miss ratios\n");
    fig18.Print();
  }
  WriteCsv(csv, "results/multiclass.csv");
  WriteBenchJson(json, wall);
  return 0;
}
