// Ablation: is density the right ranking key? (One of the design
// ablations docs/BENCHMARKS.md lists.) The paper sorts prefixes by
// density (hosts per address); this bench compares, at equal host
// coverage, the address-space cost of alternative orderings:
//
//   * density      — the paper's choice (step 3 of the algorithm)
//   * host-count   — most responsive prefixes first, ignoring their size
//   * space-asc    — smallest prefixes first, ignoring their host count
//   * random       — no ordering information at all
//
// Expected: density dominates every alternative at every phi.
#include <cstdio>

#include "bench_common.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "report/table.hpp"

int main() {
  using namespace tass;
  const auto config = bench::BenchConfig::from_env();
  const auto topology = bench::make_topology(config);
  bench::print_world_banner(config, *topology);
  std::printf("# Ablation: space coverage by ranking order (m-prefixes)\n\n");

  const struct {
    core::RankingOrder order;
    const char* name;
  } kOrders[] = {
      {core::RankingOrder::kDensity, "density (paper)"},
      {core::RankingOrder::kHostCount, "host-count"},
      {core::RankingOrder::kSpaceAscending, "space-asc"},
      {core::RankingOrder::kRandom, "random"},
  };

  for (const census::Protocol protocol : census::paper_protocols()) {
    const auto series = bench::make_series(topology, protocol, config);
    const auto ranking =
        core::rank_by_density(series.month(0), core::PrefixMode::kMore);

    report::Table table({"order", "phi=0.99", "phi=0.95", "phi=0.7",
                         "phi=0.5"});
    for (const auto& [order, name] : kOrders) {
      std::vector<std::string> row{name};
      for (const double phi : {0.99, 0.95, 0.7, 0.5}) {
        core::SelectionParams params;
        params.phi = phi;
        const auto selection =
            core::select_with_order(ranking, params, order, config.seed);
        row.push_back(report::Table::cell(selection.space_coverage(), 3));
      }
      table.add_row(std::move(row));
    }
    std::printf("[%s]\n%s\n", census::protocol_name(protocol).data(),
                table.to_text().c_str());
  }
  return 0;
}
