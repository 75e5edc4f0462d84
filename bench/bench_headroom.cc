// Headroom study: how much missed-deadline ratio is left on the table
// between the adaptive policies and the clairvoyant "oracle-ed" bound?
//
// Sweeps the admission suite — PMM, the forecasting variant
// (pmm-predict), the per-class quota variant (pmm-class),
// feasibility-shedding EDF (edf-shed), wall-clock-batched PMM
// (pmm-tick) — plus the oracle across two Section 5 workload grids:
//
//   base — the Section 5.1 memory-bottlenecked baseline, arrival rate
//          0.04..0.08 q/s (Figure 3's x-axis);
//   mc   — the Section 5.6 multiclass workload, Medium fixed at
//          0.065 q/s, Small swept over 0.2..1.2 q/s (Figure 17's
//          x-axis; rates > 0 so both classes exist and the per-class
//          policies have two classes to arbitrate).
//
// Per point, the trajectory (results/BENCH_headroom.json) records each
// policy's miss ratio and its "gap_to_oracle" — miss ratio minus
// oracle-ed's at the same workload point. The gap is SIGNED: oracle-ed
// is clairvoyant about information (it reads the exact cost-model
// estimate deadline assignment used, progress-credited via
// core::RemainingEstimate so finished work is never re-charged) but
// crude in discipline (all-or-nothing Max grants in deadline order —
// no graceful degradation through the min/max range), so a positive
// gap is headroom an
// adaptive policy could still close while a negative gap means the
// policy already beats the clairvoyant filter. RTQ_POLICIES overrides the
// policy list of BOTH grids (pick specs valid for one and two classes,
// e.g. "pmm,edf-shed"); the gap column needs "oracle-ed" in the sweep
// and is omitted without it.

#include <cmath>

#include "bench_util.h"
#include "core/policy_registry.h"

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

  Banner("E17: headroom vs the clairvoyant oracle",
         "Sections 5.1 + 5.6 grids; extends Figures 3 and 17");

  struct Grid {
    const char* key;  ///< label prefix + JSON config key
    std::vector<double> rates;
    std::vector<engine::PolicyConfig> policies;
  };
  std::vector<Grid> grids = {
      {"base",
       {0.04, 0.05, 0.06, 0.07, 0.08},
       harness::PoliciesOrDefault({{"pmm"},
                                   {"pmm-predict"},
                                   {"edf-shed"},
                                   {"pmm-tick:ms=60000"},
                                   {"oracle-ed"}})},
      {"mc",
       {0.2, 0.6, 1.0, 1.2},
       harness::PoliciesOrDefault({{"pmm"},
                                   {"pmm-predict"},
                                   {"pmm-class:targets=6,10"},
                                   {"edf-shed"},
                                   {"pmm-tick:ms=60000"},
                                   {"oracle-ed"}})},
  };

  std::vector<harness::RunSpec> specs;
  for (const Grid& grid : grids) {
    for (double rate : grid.rates) {
      for (const auto& policy : grid.policies) {
        std::string label = harness::PolicyLabel(policy) + " @ " +
                            grid.key + " " + F(rate, 3);
        specs.push_back({label, grid.key == std::string("base")
                                    ? harness::BaselineConfig(rate, policy)
                                    : harness::MulticlassConfig(rate,
                                                                policy)});
      }
    }
  }

  auto start = Now();
  std::vector<harness::RunResult> results = harness::RunPool(specs);
  double wall = SecondsSince(start);

  harness::CsvWriter csv({"grid", "rate", "policy", "miss_ratio",
                          "oracle_miss_ratio", "gap_to_oracle"});
  harness::BenchJsonEmitter json("headroom");
  json.AddConfig("grid_base", "Section 5.1 baseline, lambda sweep");
  json.AddConfig("grid_mc",
                 "Section 5.6 multiclass, Small-class rate sweep");

  size_t i = 0;
  for (const Grid& grid : grids) {
    int oracle = OracleIndex(grid.policies);
    harness::TablePrinter miss_table(
        harness::PolicyColumns(std::string(grid.key) + " rate",
                               grid.policies));
    harness::TablePrinter gap_table(
        harness::PolicyColumns(std::string(grid.key) + " rate (gap, pp)",
                               grid.policies));
    for (double rate : grid.rates) {
      double oracle_miss =
          oracle >= 0
              ? results[i + static_cast<size_t>(oracle)].summary.overall
                    .miss_ratio
              : std::nan("");
      std::vector<std::string> miss_row{F(rate, 3)};
      std::vector<std::string> gap_row{F(rate, 3)};
      for (const auto& policy : grid.policies) {
        const engine::SystemSummary& s = results[i].summary;
        double gap = s.overall.miss_ratio - oracle_miss;  // NaN sans oracle
        miss_row.push_back(Pct(s.overall.miss_ratio));
        gap_row.push_back(std::isfinite(gap) ? F(gap * 100.0, 1)
                                             : std::string("-"));
        csv.AddRow({grid.key, F(rate, 3), harness::PolicyLabel(policy),
                    F(s.overall.miss_ratio, 4),
                    std::isfinite(oracle_miss) ? F(oracle_miss, 4)
                                               : std::string(""),
                    std::isfinite(gap) ? F(gap, 4) : std::string("")});
        json.AddResult(results[i], harness::PolicyLabel(policy), rate, gap);
        ++i;
      }
      miss_table.AddRow(miss_row);
      gap_table.AddRow(gap_row);
    }
    std::printf("%s grid: miss ratio per policy\n", grid.key);
    miss_table.Print();
    std::printf("\n%s grid: signed headroom vs oracle-ed (percentage "
                "points; negative = beats the clairvoyant filter)\n",
                grid.key);
    gap_table.Print();
    std::printf("\n");
  }

  WriteCsv(csv, "results/headroom.csv");
  WriteBenchJson(json, wall);
  return 0;
}
