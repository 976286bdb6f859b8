// Fig 8 — Federation user perspective, including rejected jobs (charged
// at their origin-resource estimate), plus the without-federation
// reference points the paper quotes for NASA iPSC / LANL Origin.

#include "bench_common.hpp"

int main() {
  using namespace gridfed;
  bench::banner("Fig 8",
                "Experiment 3 — user QoS including rejected jobs, with "
                "without-federation reference points");

  const auto& sweep = bench::economy_sweep();
  std::vector<std::string> header{"Resource"};
  for (const auto& r : sweep) {
    header.push_back("OFT" + std::to_string(r.oft_percent) + "%");
  }

  std::printf("(a) Average response time (sim seconds), incl. rejected\n\n");
  stats::Table a(header);
  for (std::size_t i = 0; i < sweep.front().resources.size(); ++i) {
    std::vector<std::string> row{sweep.front().resources[i].name};
    for (const auto& r : sweep) {
      row.push_back(stats::Table::sci(r.resources[i].response_incl.mean(), 2));
    }
    a.add_row(std::move(row));
  }
  std::printf("%s\n", a.str().c_str());

  std::printf("(b) Average budget spent (Grid Dollars), incl. rejected\n\n");
  stats::Table b(header);
  for (std::size_t i = 0; i < sweep.front().resources.size(); ++i) {
    std::vector<std::string> row{sweep.front().resources[i].name};
    for (const auto& r : sweep) {
      row.push_back(stats::Table::sci(r.resources[i].budget_incl.mean(), 2));
    }
    b.add_row(std::move(row));
  }
  std::printf("%s\n", b.str().c_str());

  // Without-federation reference points (paper §3.7.3): the most popular
  // resources' local users fare *worse* inside the federation.
  const auto indep = core::run_experiment(
      core::make_config(core::SchedulingMode::kIndependent));
  const auto nasa = cluster::catalog_index("NASA iPSC");
  const auto origin = cluster::catalog_index("LANL Origin");
  const auto& oft100 = sweep.back();
  const auto& ofc100 = sweep.front();

  std::printf("Reference points (local users of the most popular resources):\n");
  std::printf("  NASA iPSC avg response: %.4g (independent) vs %.4g "
              "(federation, 100%% OFT)   [paper: 1.268e3 vs 1.550e3]\n",
              indep.resources[nasa].response_excl.mean(),
              oft100.resources[nasa].response_excl.mean());
  std::printf("  LANL Origin avg budget: %.4g (independent) vs %.4g "
              "(federation, 100%% OFC)   [paper: 4.851e5 vs 5.189e5]\n",
              indep.resources[origin].budget_excl.mean(),
              ofc100.resources[origin].budget_excl.mean());
  std::printf("  Federation-wide avg budget (incl. rejected) 100%% OFC: %.4g "
              "vs independent %.4g  [paper: 8.874e5 vs 9.359e5]\n",
              ofc100.fed_budget_incl.mean(), indep.fed_budget_incl.mean());
  std::printf("  Federation-wide avg response (incl. rejected) 100%% OFT: "
              "%.4g vs independent %.4g  [paper: 1.171e4 vs 1.207e4]\n",
              oft100.fed_response_incl.mean(),
              indep.fed_response_incl.mean());
  return 0;
}
