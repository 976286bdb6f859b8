// Fig 2 — Resource utilization and job-migration plot.
// (a) average utilization per resource, Experiment 1 vs Experiment 2;
// (b) per-resource job split (local / migrated / remote) under federation.

#include "bench_common.hpp"

int main() {
  using namespace gridfed;
  bench::banner("Fig 2", "Utilization lift and load-sharing, Exp 1 vs Exp 2");

  const auto indep = core::run_experiment(
      core::make_config(core::SchedulingMode::kIndependent));
  const auto fed = core::run_experiment(
      core::make_config(core::SchedulingMode::kFederationNoEconomy));

  std::printf("(a) Average resource utilization (%%)\n\n");
  stats::Table a({"Resource", "Independent", "Federation", "Delta"});
  for (std::size_t i = 0; i < indep.resources.size(); ++i) {
    const double u1 = 100.0 * indep.resources[i].utilization;
    const double u2 = 100.0 * fed.resources[i].utilization;
    a.add_row({indep.resources[i].name, stats::Table::num(u1, 2),
               stats::Table::num(u2, 2), stats::Table::num(u2 - u1, 2)});
  }
  std::printf("%s\n", a.str().c_str());

  std::printf("(b) No. of jobs vs resource (federation run)\n\n");
  stats::Table b({"Resource", "Total", "Processed Locally", "Migrated",
                  "Remote Processed"});
  for (const auto& row : fed.resources) {
    b.add_row({row.name, std::to_string(row.total_jobs),
               std::to_string(row.processed_locally),
               std::to_string(row.migrated),
               std::to_string(row.remote_processed)});
  }
  std::printf("%s\n", b.str().c_str());
  return 0;
}
