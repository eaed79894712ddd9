// plan_cycle: the batch cycle a scanning team runs, from a pfx2as table
// and a seed-scan export to a loadable, scanned plan — in two legs.
//
//   v4: pfx2as text -> RoutingTable -> m-partition -> seed-scan export
//       -> attribute -> rank -> select (phi 0.95) -> reduce (5%)
//       -> ScanScope (default blocklist) -> seal -> load
//       -> run_attributed of the plan against the month-1 snapshot
//   v6: pfx2as6 text -> RoutingTable6 -> m-partition -> hitlist
//       -> tally -> rank -> select -> reduce -> ScanScope6 + candidates
//       -> seal -> load
//
// Every stage is one span around one public library call. Checks run
// after a leg's clock stops: the loaded ranking is bit-identical to the
// in-memory one, the plan scan's hits equal ScanEngine::estimate over
// the same scope, and a digest over cells, counts, ranking order,
// selection, reduced list and image fingerprint matches the reference
// computed in setup from the in-memory world (no text round trip).
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bgp/partition.hpp"
#include "bgp/pfx2as.hpp"
#include "bgp/reduce.hpp"
#include "bgp/rib.hpp"
#include "bgp/table6.hpp"
#include "census/hitlist6.hpp"
#include "census/import.hpp"
#include "common.hpp"
#include "core/attribution.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "scan/blocklist.hpp"
#include "scan/engine.hpp"
#include "scan/scope.hpp"
#include "scan/scope6.hpp"
#include "state/image.hpp"
#include "util/hash.hpp"
#include "world.hpp"

namespace tassbench {

using namespace tass;

namespace {

constexpr double kPhi = 0.95;
constexpr double kOvershoot = 0.05;
constexpr unsigned kThreads = 2;  // attribution + scan engine participants

core::SelectionParams selection_params() {
  core::SelectionParams params;
  params.phi = kPhi;
  return params;
}
bgp::ReduceParams reduce_params() {
  bgp::ReduceParams params;
  params.max_overshoot = kOvershoot;
  return params;
}

void hash_prefix(util::Fnv1a64& h, net::Prefix p) {
  h.update_u32(p.network().value());
  h.update(static_cast<std::uint8_t>(p.length()));
}
void hash_prefix(util::Fnv1a64& h, net::Ipv6Prefix p) {
  h.update_u64(p.network().hi());
  h.update_u64(p.network().lo());
  h.update(static_cast<std::uint8_t>(p.length()));
}

/// The plan digest of one family: cells, per-cell counts, ranking
/// order, selection, reduced list and the image fingerprint.
template <class Family, class Counts>
std::uint64_t plan_digest(const bgp::BasicPrefixPartition<Family>& partition,
                          const Counts& counts,
                          const core::DensityRankingT<Family>& ranking,
                          const core::SelectionT<Family>& selection,
                          const bgp::BasicReduceResult<Family>& reduced,
                          std::uint64_t fingerprint) {
  util::Fnv1a64 h;
  h.update_u64(partition.size());
  for (std::size_t i = 0; i < partition.size(); ++i) {
    hash_prefix(h, partition.prefix(i));
  }
  for (const auto count : counts) h.update_u64(count);
  for (const auto& row : ranking.ranked) h.update_u32(row.index);
  for (const std::uint32_t index : selection.indices) h.update_u32(index);
  for (const auto& prefix : reduced.prefixes) hash_prefix(h, prefix);
  h.update_u64(fingerprint);
  return h.digest();
}

template <class Family>
bool rankings_identical(const core::DensityRankingT<Family>& a,
                        const core::DensityRankingViewT<Family>& b) {
  if (a.mode != b.mode || a.total_hosts != b.total_hosts ||
      a.advertised_addresses != b.advertised_addresses ||
      a.ranked.size() != b.ranked.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    const auto& x = a.ranked[i];
    const auto& y = b.ranked[i];
    if (x.index != y.index || x.prefix != y.prefix || x.size != y.size ||
        x.hosts != y.hosts || x.density != y.density ||
        x.host_share != y.host_share) {
      return false;
    }
  }
  return true;
}

struct Setup {
  std::string pfx2as_path, export_path, image_path;
  std::string pfx2as6_path, hitlist_path, image6_path;
  V4World world;
  std::unique_ptr<scan::SnapshotOracle> month1_oracle;
  std::uint64_t reference_digest = 0;
  std::uint64_t reference_digest6 = 0;
};

std::unique_ptr<Setup> make_setup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  const std::string& dir = options.workdir;
  setup->pfx2as_path = dir + "/routeviews.pfx2as";
  setup->export_path = dir + "/seed-scan.txt";
  setup->image_path = dir + "/plan.tsim";
  setup->pfx2as6_path = dir + "/routeviews6.pfx2as";
  setup->hitlist_path = dir + "/hitlist6.txt";
  setup->image6_path = dir + "/plan6.tsim";

  setup->world = make_v4_world(options.sizes, options.seed, true);
  const V6World world6 = make_v6_world(options.sizes, options.seed);
  write_text(setup->pfx2as_path, bgp::format_pfx2as(setup->world.records));
  write_text(setup->export_path, format_address_list(*setup->world.month0));
  write_text(setup->pfx2as6_path, bgp::format_pfx2as6(world6.records));
  write_text(setup->hitlist_path, format_hitlist(world6.hitlist));
  setup->month1_oracle =
      std::make_unique<scan::SnapshotOracle>(*setup->world.month1);

  // Reference digests straight from the in-memory world.
  {
    const auto partition =
        bgp::RoutingTable::from_pfx2as(setup->world.records).m_partition();
    const auto seed_hosts = setup->world.month0->addresses();
    core::AttributionConfig config;
    config.threads = 1;
    const auto attribution = core::attribute(seed_hosts, partition, config);
    const auto ranking = core::rank_by_density(attribution.counts, partition,
                                               core::PrefixMode::kMore);
    const auto selection = core::select_by_density(ranking, selection_params());
    const auto reduced =
        bgp::reduce(std::span<const net::Prefix>(selection.prefixes),
                    reduce_params());
    setup->reference_digest =
        plan_digest(partition, attribution.counts, ranking, selection,
                    reduced, bgp::partition_fingerprint(partition));
  }
  {
    const auto partition =
        bgp::RoutingTable6::from_pfx2as(world6.records).m_partition();
    std::vector<std::uint32_t> counts(partition.size(), 0);
    std::uint64_t attributed = 0, unattributed = 0;
    partition.tally_cells(std::span<const net::Ipv6Address>(world6.hitlist),
                          counts, attributed, unattributed);
    const auto ranking =
        core::rank_by_density(counts, partition, core::PrefixMode::kMore);
    const auto selection = core::select_by_density(ranking, selection_params());
    const auto reduced =
        bgp::reduce(std::span<const net::Ipv6Prefix>(selection.prefixes),
                    reduce_params());
    setup->reference_digest6 =
        plan_digest(partition, counts, ranking, selection, reduced,
                    bgp::partition_fingerprint(partition));
  }
  return setup;
}

/// What one v4 leg produced, for the metrics and the checks.
struct V4Leg {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t routes = 0, cells = 0, seed_hosts = 0, unattributed = 0,
                selected = 0, reduced = 0, merges = 0, probes = 0, hits = 0,
                image_bytes = 0, advertised = 0;
};

struct V6Leg {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t cells = 0, candidates = 0;
};

V4Leg run_v4_leg(const Setup& setup, Tracer& tracer, std::uint64_t cycle,
                 Report& report) {
  V4Leg leg;
  const scan::Blocklist blocklist = scan::Blocklist::default_blocklist();
  const auto start = Clock::now();
  const std::int64_t leg_span = tracer.open("plan.v4_leg", cycle);

  const std::string table_text = read_text(setup.pfx2as_path);
  const auto records = tracer.span("bgp.parse", cycle, [&] {
    return bgp::parse_pfx2as(table_text);
  });
  const auto table = tracer.span("bgp.rib", cycle, [&] {
    return bgp::RoutingTable::from_pfx2as(records);
  });
  const auto partition =
      tracer.span("bgp.partition", cycle, [&] { return table.m_partition(); });
  const std::string export_text = read_text(setup.export_path);
  const auto seed_hosts = tracer.span("census.import", cycle, [&] {
    return census::parse_address_list(export_text);
  });
  core::AttributionConfig attribution_config;
  attribution_config.threads = kThreads;
  const auto attribution = tracer.span("core.attribute", cycle, [&] {
    return core::attribute(seed_hosts, partition, attribution_config);
  });
  const auto ranking = tracer.span("core.rank", cycle, [&] {
    return core::rank_by_density(attribution.counts, partition,
                                 core::PrefixMode::kMore);
  });
  const auto selection = tracer.span("core.select", cycle, [&] {
    return core::select_by_density(ranking, selection_params());
  });
  const auto reduced = tracer.span("bgp.reduce", cycle, [&] {
    return bgp::reduce(std::span<const net::Prefix>(selection.prefixes),
                       reduce_params());
  });
  const auto scope = tracer.span("scan.scope", cycle, [&] {
    return scan::ScanScope(reduced.prefixes, blocklist);
  });
  tracer.span("state.seal", cycle, [&] {
    state::save_image(setup.image_path, partition, ranking);
  });
  const auto image = tracer.span("state.load", cycle, [&] {
    return state::StateImage::load(setup.image_path);
  });
  scan::EngineConfig engine_config;
  engine_config.order = scan::EngineConfig::Order::kEnumerate;
  engine_config.threads = kThreads;
  const scan::ScanEngine engine(engine_config);
  const auto scanned = tracer.span("scan.run", cycle, [&] {
    return engine.run_attributed(scope, *setup.month1_oracle,
                                 image.partition());
  });

  tracer.close(leg_span);
  leg.seconds = seconds_between(start, Clock::now());

  // ---- checks (outside the leg's clock) -------------------------------
  report.check(rankings_identical(ranking, image.ranking()),
               "plan_cycle: loaded v4 ranking differs from the in-memory one");
  const scan::ScanStats estimate =
      engine.estimate(scope, *setup.month1_oracle);
  report.check(estimate.responses == scanned.result.stats.responses &&
                   estimate.probes_sent == scanned.result.stats.probes_sent,
               "plan_cycle: plan-scan hits differ from ScanEngine::estimate");
  leg.digest = plan_digest(partition, attribution.counts, ranking, selection,
                           reduced, image.info().fingerprint);
  report.check(leg.digest == setup.reference_digest,
               "plan_cycle: v4 plan digest differs from the reference");

  leg.routes = records.size();
  leg.cells = partition.size();
  leg.seed_hosts = seed_hosts.size();
  leg.unattributed = attribution.unattributed;
  leg.selected = selection.k();
  leg.reduced = reduced.prefixes.size();
  leg.merges = reduced.merges;
  leg.probes = scanned.result.stats.probes_sent;
  leg.hits = scanned.result.stats.responses;
  leg.image_bytes = image.info().file_bytes;
  leg.advertised = partition.address_count();
  return leg;
}

V6Leg run_v6_leg(const Setup& setup, Tracer& tracer, std::uint64_t cycle,
                 Report& report) {
  V6Leg leg;
  const scan::Blocklist blocklist = scan::Blocklist::default_blocklist();
  const auto start = Clock::now();
  const std::int64_t leg_span = tracer.open("plan.v6_leg", cycle);

  const std::string table_text = read_text(setup.pfx2as6_path);
  const auto records = tracer.span("bgp.parse6", cycle, [&] {
    return bgp::parse_pfx2as6(table_text);
  });
  const auto table = tracer.span("bgp.rib6", cycle, [&] {
    return bgp::RoutingTable6::from_pfx2as(records);
  });
  const auto partition =
      tracer.span("bgp.partition6", cycle, [&] { return table.m_partition(); });
  const std::string hitlist_text = read_text(setup.hitlist_path);
  const auto hitlist = tracer.span("census.hitlist6", cycle, [&] {
    return census::parse_hitlist6(hitlist_text);
  });
  std::vector<std::uint32_t> counts(partition.size(), 0);
  std::uint64_t attributed = 0, unattributed = 0;
  tracer.span("bgp.tally6", cycle, [&] {
    partition.tally_cells(std::span<const net::Ipv6Address>(hitlist), counts,
                          attributed, unattributed);
  });
  const auto ranking = tracer.span("core.rank6", cycle, [&] {
    return core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  });
  const auto selection = tracer.span("core.select6", cycle, [&] {
    return core::select_by_density(ranking, selection_params());
  });
  const auto reduced = tracer.span("bgp.reduce6", cycle, [&] {
    return bgp::reduce(std::span<const net::Ipv6Prefix>(selection.prefixes),
                       reduce_params());
  });
  const auto scope = tracer.span("scan.scope6", cycle, [&] {
    scan::ScanScope6 built(reduced.prefixes, blocklist);
    built.add_candidates(hitlist);
    return built;
  });
  tracer.span("state.seal6", cycle, [&] {
    state::save_image(setup.image6_path, partition, ranking);
  });
  const auto image = tracer.span("state.load6", cycle, [&] {
    return state::StateImage6::load(setup.image6_path);
  });

  tracer.close(leg_span);
  leg.seconds = seconds_between(start, Clock::now());

  report.check(rankings_identical(ranking, image.ranking()),
               "plan_cycle: loaded v6 ranking differs from the in-memory one");
  leg.digest = plan_digest(partition, counts, ranking, selection, reduced,
                           image.info().fingerprint);
  report.check(leg.digest == setup.reference_digest6,
               "plan_cycle: v6 plan digest differs from the reference");
  leg.cells = partition.size();
  leg.candidates = scope.candidate_count();
  return leg;
}

const char* const kV4Stages[] = {
    "bgp.parse",     "census.import", "bgp.rib",    "bgp.partition",
    "core.attribute", "core.rank",    "core.select", "bgp.reduce",
    "scan.scope",    "state.seal",    "state.load", "scan.run"};
const char* const kV6Stages[] = {
    "bgp.parse6",  "bgp.rib6",     "bgp.partition6", "census.hitlist6",
    "bgp.tally6",  "core.rank6",   "core.select6",   "bgp.reduce6",
    "scan.scope6", "state.seal6",  "state.load6"};

/// Per-stage medians over the traced cycles, their shares of the leg,
/// and the untimed gap (leg minus its stage spans).
template <std::size_t N>
void report_stages(const Tracer& tracer, const char* leg_name,
                   const char* const (&stages)[N],
                   const std::vector<std::uint64_t>& cycles,
                   const char* gap_name, Report& report) {
  std::vector<double> leg_ms, gap_ms;
  std::vector<std::vector<double>> stage_ms(N);
  for (const std::uint64_t cycle : cycles) {
    const double leg = tracer.duration_ms(leg_name, cycle);
    double covered = 0.0;
    for (std::size_t s = 0; s < N; ++s) {
      const double ms = tracer.self_ms(stages[s], cycle);
      stage_ms[s].push_back(ms);
      covered += ms;
    }
    leg_ms.push_back(leg);
    gap_ms.push_back(leg - covered);
  }
  const double leg_median = median(leg_ms);
  report.detail(std::string(leg_name) + "_ms", leg_median, "ms");
  for (std::size_t s = 0; s < N; ++s) {
    const double ms = median(stage_ms[s]);
    report.detail(std::string(stages[s]) + "_ms", ms, "ms");
    report.detail(std::string(stages[s]) + "_share", ms / leg_median, "ratio");
  }
  report.detail(gap_name, median(gap_ms), "ms");
}

}  // namespace

void run_plan_cycle(const Options& options, Report& report) {
  // ---- setup, repeated; the median is setup_s --------------------------
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (std::size_t i = 0; i < options.sizes.setup_repeats; ++i) {
    setup.reset();
    const auto start = Clock::now();
    setup = make_setup(options);
    setup_seconds.push_back(seconds_between(start, Clock::now()));
    std::fprintf(stderr, "# plan_cycle setup %zu: %.3f s\n", i,
                 setup_seconds.back());
  }
  flush_setup_writes();
  std::fprintf(stdout,
               "# plan_cycle config: threads attribute=%u engine=%u phi=%.2f "
               "overshoot=%.2f v4_cells_target=%zu v6_routes=%zu\n",
               kThreads, kThreads, kPhi, kOvershoot, options.sizes.v4_cells,
               options.sizes.v6_routes);

  // ---- measured cycles ------------------------------------------------
  // One warm-up cycle (page cache, allocator), then cycles until the
  // time budget is spent. The traced run alternates traced and untraced
  // cycles so the tracing overhead is measured on the same process.
  Tracer tracer(options.trace);
  Tracer untraced(false);
  std::vector<double> v4_s, v6_s, v4_traced_s;
  std::vector<std::uint64_t> traced_cycles;
  std::uint64_t digest = 0, digest6 = 0;
  V4Leg last4;
  V6Leg last6;
  const auto budget_start = Clock::now();
  for (std::uint64_t cycle = 0;; ++cycle) {
    const bool traced = options.trace && cycle % 2 == 1;
    Tracer& t = traced ? tracer : untraced;
    const V4Leg leg4 = run_v4_leg(*setup, t, cycle, report);
    const V6Leg leg6 = run_v6_leg(*setup, t, cycle, report);
    if (cycle == 0) {
      digest = leg4.digest;
      digest6 = leg6.digest;
    } else {
      report.check(leg4.digest == digest && leg6.digest == digest6,
                   "plan_cycle: plan digest differs across repetitions");
      if (traced) {
        traced_cycles.push_back(cycle);
        v4_traced_s.push_back(leg4.seconds);
      } else {
        v4_s.push_back(leg4.seconds);
        v6_s.push_back(leg6.seconds);
      }
    }
    std::fprintf(stderr, "# cycle %llu%s: v4 %.3f s, v6 %.3f s\n",
                 static_cast<unsigned long long>(cycle),
                 traced ? " (traced)" : "", leg4.seconds, leg6.seconds);
    last4 = leg4;
    last6 = leg6;
    const std::size_t done = options.trace
                                 ? std::min(traced_cycles.size(), v4_s.size())
                                 : v4_s.size();
    if (done >= options.sizes.min_cycles &&
        seconds_between(budget_start, Clock::now()) >= options.seconds) {
      break;
    }
  }

  const double probe_share = static_cast<double>(last4.probes) /
                             static_cast<double>(last4.advertised);
  const double host_coverage =
      static_cast<double>(last4.hits) /
      static_cast<double>(setup->world.month1->total_hosts());
  std::fprintf(stdout,
               "# plan_cycle: %zu untraced cycles, v4 %" PRIu64
               " routes -> %" PRIu64 " cells, %" PRIu64
               " probes, %" PRIu64 " hits; v6 %" PRIu64 " cells, %" PRIu64
               " candidates\n",
               v4_s.size(), last4.routes, last4.cells, last4.probes,
               last4.hits, last6.cells, last6.candidates);

  if (!options.trace) {
    // The workload's operation is one cycle: the v4 leg, then the v6 leg.
    std::vector<double> cycle_ms;
    double cycles_s = 0.0;
    for (std::size_t i = 0; i < v4_s.size(); ++i) {
      cycle_ms.push_back((v4_s[i] + v6_s[i]) * 1e3);
      cycles_s += v4_s[i] + v6_s[i];
    }
    report.add("setup_s", median(setup_seconds), "s");
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    report.add("op_p50_ms", median(cycle_ms), "ms");
    report.add("ops_per_s", static_cast<double>(v4_s.size()) / cycles_s,
               "1/s");
    report.detail("cycle_s", median(v4_s), "s");
    report.detail("cycle6_s", median(v6_s), "s");
    report.detail("plan_probe_share", probe_share, "ratio");
    report.detail("plan_host_coverage", host_coverage, "ratio");
    return;
  }
  LayerTotals layers;
  layers.add(tracer.records());
  double traced_ms = 0.0;
  for (const std::uint64_t cycle : traced_cycles) {
    traced_ms += tracer.duration_ms("plan.v4_leg", cycle) +
                 tracer.duration_ms("plan.v6_leg", cycle);
  }
  layers.report(static_cast<double>(traced_cycles.size()), traced_ms, report);
  report.add("bgp.cells", static_cast<double>(last4.cells), "count");
  report.add("state.image_bytes", static_cast<double>(last4.image_bytes),
             "B");
  report_stages(tracer, "plan.v4_leg", kV4Stages, traced_cycles,
                "plan.untimed_gap_ms", report);
  report_stages(tracer, "plan.v6_leg", kV6Stages, traced_cycles,
                "plan.untimed_gap6_ms", report);
  report.detail("plan.trace_overhead_ms",
                (median(v4_traced_s) - median(v4_s)) * 1e3, "ms");
  report.detail("bgp.routes", static_cast<double>(last4.routes), "count");
  report.detail("census.seed_hosts", static_cast<double>(last4.seed_hosts),
                "count");
  report.detail("core.unattributed", static_cast<double>(last4.unattributed),
                "count");
  report.detail("core.selected", static_cast<double>(last4.selected), "count");
  report.detail("bgp.reduced", static_cast<double>(last4.reduced), "count");
  report.detail("bgp.merges", static_cast<double>(last4.merges), "count");
  report.detail("scan.probes", static_cast<double>(last4.probes), "count");
  report.detail("scan.hits", static_cast<double>(last4.hits), "count");
  report.detail("scan.hitrate",
                static_cast<double>(last4.hits) /
                    static_cast<double>(last4.probes),
                "ratio");
  report.detail("bgp.cells6", static_cast<double>(last6.cells), "count");
  report.detail("scan.candidates6", static_cast<double>(last6.candidates),
                "count");
  dump_spans(tracer.records(), options.workdir + "/spans-plan_cycle.jsonl");
}

}  // namespace tassbench
