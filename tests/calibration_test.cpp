// Calibration suite: asserts the paper's shape-fidelity targets (Table 1,
// Figures 3, 5 and 6, the headline efficiency band) on a mid-size
// synthetic world, so regressions in the generative model (topology,
// population, churn) are caught by CI rather than by eyeballing bench
// output. Tolerances are deliberately loose — the paper's *shape* is the
// contract, not its third decimal.
#include <gtest/gtest.h>

#include <map>

#include "core/evaluate.hpp"

namespace tass {
namespace {

using census::Protocol;
using core::PrefixMode;

struct World {
  std::shared_ptr<const census::Topology> topology;
  std::map<Protocol, census::CensusSeries> series;
};

const World& world() {
  static const World instance = [] {
    census::TopologyParams topo_params;
    topo_params.seed = 2016;
    topo_params.l_prefix_count = 3000;
    World w{census::generate_topology(topo_params), {}};
    census::SeriesParams params;
    params.months = 7;
    params.host_scale = 0.008;
    params.seed = 2017;
    for (const Protocol protocol : census::paper_protocols()) {
      w.series.emplace(protocol, census::CensusSeries::generate(
                                     w.topology, protocol, params));
    }
    return w;
  }();
  return instance;
}

double space_at_phi(Protocol protocol, PrefixMode mode, double phi) {
  const auto ranking =
      core::rank_by_density(world().series.at(protocol).month(0), mode);
  core::SelectionParams params;
  params.phi = phi;
  return core::select_by_density(ranking, params).space_coverage();
}

TEST(Calibration, FullScanHitratesAreUnderTwoPercent) {
  // "Hitrates ... are very often under two percent" (section 1).
  for (const Protocol protocol : census::paper_protocols()) {
    const auto& seed = world().series.at(protocol).month(0);
    const double hitrate =
        static_cast<double>(seed.total_hosts()) /
        static_cast<double>(world().topology->advertised_addresses);
    EXPECT_LT(hitrate, 0.02) << census::protocol_name(protocol);
    EXPECT_GT(hitrate, 0.00001) << census::protocol_name(protocol);
  }
}

TEST(Calibration, Table1MorePrefixColumnTracksThePaper) {
  // Paper Table 1, m-prefixes; tolerance +-0.06 absolute.
  const struct {
    Protocol protocol;
    double phi;
    double paper;
  } targets[] = {
      {Protocol::kFtp, 1.0, 0.574},   {Protocol::kFtp, 0.99, 0.371},
      {Protocol::kFtp, 0.95, 0.206},  {Protocol::kFtp, 0.5, 0.006},
      {Protocol::kHttp, 1.0, 0.648},  {Protocol::kHttp, 0.95, 0.279},
      {Protocol::kHttps, 1.0, 0.645}, {Protocol::kHttps, 0.95, 0.262},
      {Protocol::kCwmp, 1.0, 0.332},  {Protocol::kCwmp, 0.95, 0.085},
  };
  for (const auto& target : targets) {
    EXPECT_NEAR(space_at_phi(target.protocol, PrefixMode::kMore, target.phi),
                target.paper, 0.06)
        << census::protocol_name(target.protocol) << " phi=" << target.phi;
  }
}

TEST(Calibration, LessPrefixColumnShape) {
  // l-granularity costs more space than m at the same phi (Table 1), by
  // roughly the paper's 15-20 points at phi=1.
  for (const Protocol protocol : census::paper_protocols()) {
    const double less = space_at_phi(protocol, PrefixMode::kLess, 1.0);
    const double more = space_at_phi(protocol, PrefixMode::kMore, 1.0);
    EXPECT_GT(less, more) << census::protocol_name(protocol);
    EXPECT_NEAR(less - more, 0.17, 0.12) << census::protocol_name(protocol);
  }
  // CWMP is the most concentrated protocol of the four.
  for (const Protocol protocol :
       {Protocol::kFtp, Protocol::kHttp, Protocol::kHttps}) {
    EXPECT_LT(space_at_phi(Protocol::kCwmp, PrefixMode::kLess, 1.0),
              space_at_phi(protocol, PrefixMode::kLess, 1.0));
  }
}

TEST(Calibration, CoverageKneeIsSteep) {
  // phi 1 -> 0.99 must shed >= 15 points of space (paper: 20-30%).
  for (const Protocol protocol : census::paper_protocols()) {
    const double full = space_at_phi(protocol, PrefixMode::kMore, 1.0);
    const double p99 = space_at_phi(protocol, PrefixMode::kMore, 0.99);
    EXPECT_GT(full - p99, 0.15) << census::protocol_name(protocol);
  }
}

TEST(Calibration, HitlistDecayMatchesFigure5) {
  for (const Protocol protocol : census::paper_protocols()) {
    const auto& series = world().series.at(protocol);
    const auto evaluation =
        core::evaluate(core::HitlistStrategy(series.month(0)), series);
    const double month1 = evaluation.cycles[1].hitrate();
    const double month6 = evaluation.cycles[6].hitrate();
    if (protocol == Protocol::kCwmp) {
      EXPECT_LT(month1, 0.70);
      EXPECT_NEAR(month6, 0.43, 0.07);
    } else {
      EXPECT_NEAR(month1, 0.80, 0.04) << census::protocol_name(protocol);
      EXPECT_NEAR(month6, 0.72, 0.05) << census::protocol_name(protocol);
    }
  }
}

TEST(Calibration, TassDecayMatchesFigure6) {
  for (const Protocol protocol : census::paper_protocols()) {
    const auto& series = world().series.at(protocol);
    core::SelectionParams params;
    params.phi = 1.0;

    const core::TassStrategy less(series.month(0), PrefixMode::kLess,
                                  params);
    const auto less_eval = core::evaluate(less, series);
    const double less_decay =
        (1.0 - less_eval.cycles[6].hitrate()) / 6.0;
    // "about 0.3 percent per month" for l-prefixes.
    EXPECT_GT(less_decay, 0.001) << census::protocol_name(protocol);
    EXPECT_LT(less_decay, 0.006) << census::protocol_name(protocol);

    const core::TassStrategy more(series.month(0), PrefixMode::kMore,
                                  params);
    const auto more_eval = core::evaluate(more, series);
    const double more_decay =
        (1.0 - more_eval.cycles[6].hitrate()) / 6.0;
    // m-prefixes decay faster, up to ~0.7%/month (CWMP).
    EXPECT_GE(more_decay, less_decay - 0.0005)
        << census::protocol_name(protocol);
    EXPECT_LT(more_decay, 0.009) << census::protocol_name(protocol);
    if (protocol == Protocol::kCwmp) {
      EXPECT_GT(more_decay, 0.005);
    }
  }
}

TEST(Calibration, Phi95BandMatchesFigure6b) {
  // phi = 0.95 keeps hitrate in the 0.90-0.96 band over six months.
  for (const Protocol protocol : census::paper_protocols()) {
    const auto& series = world().series.at(protocol);
    core::SelectionParams params;
    params.phi = 0.95;
    for (const PrefixMode mode : {PrefixMode::kLess, PrefixMode::kMore}) {
      const core::TassStrategy strategy(series.month(0), mode, params);
      const auto evaluation = core::evaluate(strategy, series);
      EXPECT_NEAR(evaluation.cycles[0].hitrate(), 0.95, 0.01);
      EXPECT_GT(evaluation.cycles[6].hitrate(), 0.88)
          << census::protocol_name(protocol);
      EXPECT_LT(evaluation.cycles[6].hitrate(), 0.96)
          << census::protocol_name(protocol);
    }
  }
}

TEST(Calibration, HeadlineEfficiencyBand) {
  // "1.25 to 10 times more efficient" at single-digit coverage loss.
  for (const Protocol protocol : census::paper_protocols()) {
    const auto& series = world().series.at(protocol);
    core::SelectionParams params;
    params.phi = 0.95;
    const core::TassStrategy strategy(series.month(0), PrefixMode::kMore,
                                      params);
    const auto evaluation = core::evaluate(strategy, series);
    EXPECT_GT(evaluation.efficiency_vs_full(), 1.25)
        << census::protocol_name(protocol);
    EXPECT_LT(evaluation.efficiency_vs_full(), 20.0)
        << census::protocol_name(protocol);
    EXPECT_GT(evaluation.cycles[6].hitrate(), 0.88);
  }
}

TEST(Calibration, Figure3HistogramsAreStableAcrossMonths) {
  const auto& series = world().series.at(Protocol::kFtp);
  const auto first =
      core::hosts_by_prefix_length(series.month(0), PrefixMode::kLess);
  const auto last =
      core::hosts_by_prefix_length(series.month(6), PrefixMode::kLess);
  for (int length = 8; length <= 24; ++length) {
    const auto index = static_cast<std::size_t>(length);
    if (first[index] < 500) continue;  // skip noise-dominated buckets
    const double drift =
        std::abs(static_cast<double>(last[index]) -
                 static_cast<double>(first[index])) /
        static_cast<double>(first[index]);
    EXPECT_LT(drift, 0.15) << "length /" << length;
  }
}

TEST(Calibration, Figure3MoreSpecificHistogramIsRightShifted) {
  const auto& seed = world().series.at(Protocol::kHttps).month(0);
  const auto less = core::hosts_by_prefix_length(seed, PrefixMode::kLess);
  const auto more = core::hosts_by_prefix_length(seed, PrefixMode::kMore);
  const auto mean_length = [](const std::array<std::uint64_t, 33>& hist) {
    double weighted = 0;
    double total = 0;
    for (std::size_t length = 0; length < hist.size(); ++length) {
      weighted += static_cast<double>(hist[length]) *
                  static_cast<double>(length);
      total += static_cast<double>(hist[length]);
    }
    return weighted / total;
  };
  EXPECT_GT(mean_length(more), mean_length(less) + 0.5);
}

}  // namespace
}  // namespace tass
