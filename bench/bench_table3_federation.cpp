// Table 3 — Workload Processing Statistics (With Federation).
// Experiment 2: local-first scheduling with fastest-first overflow into
// the federation; no economy.

#include "bench_common.hpp"

int main() {
  using namespace gridfed;
  bench::banner("Table 3",
                "Experiment 2 — federation without economy "
                "(local first, then fastest-first overflow)");

  const auto result = core::run_experiment(
      core::make_config(core::SchedulingMode::kFederationNoEconomy));

  stats::Table t({"Index", "Resource / Cluster Name",
                  "Avg Resource Utilization (%)", "Total Job",
                  "Accepted (%)", "Rejected (%)", "Processed Locally",
                  "Migrated to Federation", "Remote Jobs Processed"});
  for (std::size_t i = 0; i < result.resources.size(); ++i) {
    const auto& row = result.resources[i];
    t.add_row({std::to_string(i + 1), row.name,
               stats::Table::num(100.0 * row.utilization, 2),
               std::to_string(row.total_jobs),
               stats::Table::num(row.acceptance_pct(), 2),
               stats::Table::num(row.rejection_pct(), 2),
               std::to_string(row.processed_locally),
               std::to_string(row.migrated),
               std::to_string(row.remote_processed)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("Federation-wide acceptance: %.2f%%  (paper: 98.61%%)\n",
              result.acceptance_pct());
  return 0;
}
