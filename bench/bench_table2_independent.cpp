// Table 2 — Workload Processing Statistics (Without Federation).
// Experiment 1: every cluster schedules only its own trace; jobs whose
// deadline the local LRMS cannot honour are rejected.

#include "bench_common.hpp"

int main() {
  using namespace gridfed;
  bench::banner("Table 2",
                "Experiment 1 — independent resources (no federation)");

  const auto result = core::run_experiment(
      core::make_config(core::SchedulingMode::kIndependent));

  stats::Table t({"Index", "Resource / Cluster Name",
                  "Avg Resource Utilization (%)", "Total Job",
                  "Total Job Accepted (%)", "Total Job Rejected (%)"});
  for (std::size_t i = 0; i < result.resources.size(); ++i) {
    const auto& row = result.resources[i];
    t.add_row({std::to_string(i + 1), row.name,
               stats::Table::num(100.0 * row.utilization, 3),
               std::to_string(row.total_jobs),
               stats::Table::num(row.acceptance_pct(), 3),
               stats::Table::num(row.rejection_pct(), 3)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("Federation-wide acceptance: %.2f%%  (paper: 90.30%%)\n",
              result.acceptance_pct());
  return 0;
}
