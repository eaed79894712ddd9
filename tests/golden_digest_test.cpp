// Golden digest of the reproduction's outputs: on a fixed-seed v4 and v6
// world, one FNV-1a digest per family over everything the plan pipeline
// produces — the merged routes, the m-partition cells and per-cell host
// counts, the density ranking order, the selections at phi = 1 and
// phi = 0.95, the 5%-overshoot reduction, the TSIM fingerprint and image
// bytes, and the raw LpmIndex arrays (root, nodes, leaves) of both the
// disjoint partition and the nested route table.
//
// The expected values are constants: a refactor of any stage (routing
// table, deaggregation, LPM build, ranking, selection, reduction, image
// encoding) that changes a single byte of output fails here, so a change
// meant to be behaviour-preserving is shown to be byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bgp/partition.hpp"
#include "bgp/pfx2as.hpp"
#include "bgp/reduce.hpp"
#include "bgp/rib.hpp"
#include "bgp/table6.hpp"
#include "census/population.hpp"
#include "census/protocol.hpp"
#include "census/topology.hpp"
#include "core/attribution.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "net/special_use.hpp"
#include "state/image.hpp"
#include "trie/lpm_index.hpp"
#include "trie/lpm_index6.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace tass {
namespace {

constexpr std::uint64_t kSeed = 20161114;
constexpr std::uint64_t kGoldenV4 = 0x16c7e5367aee95e6ULL;
constexpr std::uint64_t kGoldenV6 = 0xc7b80a3fd3747af7ULL;

std::string hex(std::uint64_t value) {
  char text[32];
  std::snprintf(text, sizeof text, "0x%016" PRIx64 "ULL", value);
  return text;
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

template <class Route>
void hash_routes(util::Fnv1a64& h, std::span<const Route> routes) {
  h.update_u64(routes.size());
  for (const Route& route : routes) {
    hash_prefix(h, route.prefix);
    h.update_u64(route.origins.size());
    for (const std::uint32_t asn : route.origins) h.update_u32(asn);
    h.update(static_cast<std::uint8_t>(route.more_specific));
  }
}

template <class Family>
void hash_lpm(util::Fnv1a64& h, const trie::BasicLpmIndex<Family>& index) {
  const auto raw = index.raw();
  h.update_u64(raw.root.size());
  for (const std::uint32_t word : raw.root) h.update_u32(word);
  h.update_u64(raw.nodes.size());
  for (const auto& node : raw.nodes) {
    h.update_u64(node.child_bits);
    h.update_u64(node.leaf_bits);
    h.update_u32(node.child_base);
    h.update_u32(node.leaf_base);
  }
  h.update_u64(raw.leaves.size());
  for (const std::uint32_t leaf : raw.leaves) h.update_u32(leaf);
}

/// An LpmIndex over the nested route table (value = route position), the
/// build path the disjoint partition never exercises.
template <class Family, class Route>
trie::BasicLpmIndex<Family> nested_index(std::span<const Route> routes) {
  std::vector<typename trie::BasicLpmIndex<Family>::Entry> table;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    table.push_back({routes[i].prefix, static_cast<std::uint32_t>(i)});
  }
  return trie::BasicLpmIndex<Family>(table);
}

/// Everything downstream of the partition and its per-cell counts.
template <class Family>
void hash_plan(util::Fnv1a64& h,
               const bgp::BasicPrefixPartition<Family>& partition,
               std::span<const std::uint32_t> counts) {
  h.update_u64(partition.size());
  for (std::size_t i = 0; i < partition.size(); ++i) {
    hash_prefix(h, partition.prefix(i));
  }
  for (const std::uint32_t count : counts) h.update_u32(count);
  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  for (const auto& row : ranking.ranked) h.update_u32(row.index);
  core::SelectionParams params;
  params.phi = 1.0;
  const auto full = core::select_by_density(ranking, params);
  for (const std::uint32_t index : full.indices) h.update_u32(index);
  params.phi = 0.95;
  const auto selection = core::select_by_density(ranking, params);
  for (const std::uint32_t index : selection.indices) h.update_u32(index);
  bgp::ReduceParams reduce_params;
  reduce_params.max_overshoot = 0.05;
  const auto reduced = bgp::reduce<Family>(selection.prefixes, reduce_params);
  for (const auto& prefix : reduced.prefixes) hash_prefix(h, prefix);
  h.update_u64(reduced.merges);
  h.update_u64(bgp::partition_fingerprint(partition));
  const auto image = state::encode_image(partition, ranking);
  h.update(std::span<const std::byte>(image));
  hash_lpm(h, partition.index());
}

// A RIB-shaped v4 table: disjoint coverings (/12-/23) from the buddy
// allocator, about half announcing nested more-specifics, plus repeated
// records (same and extra origins) and a shuffled record order so the
// merge and the first-seen origin order matter.
std::vector<bgp::Pfx2AsRecord> v4_records(util::Rng& rng) {
  census::BuddyAllocator allocator(net::scannable_space().to_prefixes());
  std::vector<bgp::Pfx2AsRecord> records;
  for (int i = 0; i < 6000; ++i) {
    const double roll = rng.uniform();
    const int length = roll < 0.02   ? 12 + static_cast<int>(rng.bounded(4))
                       : roll < 0.3 ? 16 + static_cast<int>(rng.bounded(4))
                                    : 20 + static_cast<int>(rng.bounded(4));
    const auto covering = allocator.allocate(length, rng);
    if (!covering) break;
    const auto origin = static_cast<std::uint32_t>(64512 + rng.bounded(1024));
    records.push_back({*covering, {origin}});
    if (!rng.chance(0.55)) continue;
    int specifics = 1;
    while (specifics < 6 && rng.chance(0.58)) ++specifics;
    for (int s = 0; s < specifics; ++s) {
      const int sub = std::min(length + 1 + static_cast<int>(rng.bounded(8)),
                               28);
      const auto offset = rng.bounded(std::uint64_t{1} << (sub - length));
      records.push_back(
          {net::Prefix(net::Ipv4Address(covering->network().value() +
                                        static_cast<std::uint32_t>(
                                            offset << (32 - sub))),
                       sub),
           {origin}});
    }
  }
  const std::size_t distinct = records.size();
  for (std::size_t i = 0; i < distinct / 20; ++i) {
    bgp::Pfx2AsRecord copy = records[rng.bounded(distinct)];
    if (rng.chance(0.5)) {
      copy.origins.push_back(static_cast<std::uint32_t>(rng.bounded(65536)));
    }
    records.push_back(std::move(copy));
  }
  for (std::size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.bounded(i)]);
  }
  return records;
}

TEST(GoldenDigest, Ipv4PlanIsByteIdentical) {
  util::Rng rng(util::mix64(kSeed, 4));
  const auto records = v4_records(rng);
  const auto table = bgp::RoutingTable::from_pfx2as(records);
  const auto partition = table.m_partition();

  const auto topology =
      census::topology_from_table(table, util::mix64(kSeed, 5));
  census::PopulationParams population;
  population.host_scale = 0.002;
  population.seed = util::mix64(kSeed, 6);
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kHttp),
      population);
  core::AttributionConfig config;
  config.threads = 1;
  const auto attribution =
      core::attribute(snapshot.addresses(), partition, config);

  util::Fnv1a64 h;
  hash_routes(h, table.routes());
  const bgp::RibStats stats = table.stats();
  h.update_u64(stats.prefix_count);
  h.update_u64(stats.m_prefix_count);
  h.update_u64(stats.advertised_addresses);
  h.update_u64(stats.m_prefix_addresses);
  hash_plan(h, partition, attribution.counts);
  hash_lpm(h, nested_index<net::Ipv4Family>(table.routes()));

  EXPECT_GT(partition.size(), 20000u);
  EXPECT_GT(attribution.attributed, 10000u);
  EXPECT_EQ(h.digest(), kGoldenV4) << "v4 digest is " << hex(h.digest());
}

// A v6 table laid out left to right from 2400::/12 (/29-/48 coverings
// with nested more-specifics down to /64, a few /96 and /128 host
// routes), repeated records, and a skewed hitlist of low interface IDs.
TEST(GoldenDigest, Ipv6PlanIsByteIdentical) {
  util::Rng rng(util::mix64(kSeed, 8));
  std::vector<bgp::Pfx2As6Record> records;
  std::vector<net::Ipv6Prefix> routes;
  std::uint64_t cursor = 0x2400000000000000ULL;
  while (records.size() < 6000) {
    const double roll = rng.uniform();
    const int length = roll < 0.06   ? 29
                       : roll < 0.46 ? 32
                       : roll < 0.62 ? 36 + static_cast<int>(rng.bounded(9))
                                     : 48;
    const std::uint64_t block = std::uint64_t{1} << (64 - length);
    cursor = (cursor + block - 1) & ~(block - 1);
    const std::uint64_t network = cursor;
    cursor += block * (1 + rng.bounded(4));
    const auto origin = static_cast<std::uint32_t>(131072 + rng.bounded(4096));
    const net::Ipv6Prefix covering(net::Ipv6Address(network, 0), length);
    records.push_back({covering, {origin}});
    routes.push_back(covering);
    if (!rng.chance(0.55)) continue;
    int specifics = 1;
    while (specifics < 8 && rng.chance(0.6)) ++specifics;
    for (int s = 0; s < specifics; ++s) {
      const int sub = std::min(length + 4 + static_cast<int>(rng.bounded(17)),
                               64);
      const std::uint64_t offset = rng.bounded(std::uint64_t{1}
                                               << (sub - length));
      const net::Ipv6Prefix specific(
          net::Ipv6Address(network | (offset << (64 - sub)), 0), sub);
      records.push_back({specific, {origin}});
      routes.push_back(specific);
      if (rng.chance(0.05)) {
        const int host = rng.chance(0.5) ? 96 : 128;
        records.push_back(
            {net::Ipv6Prefix(net::Ipv6Address(specific.network().hi(),
                                              rng.bounded(1u << 20) << 32),
                             host),
             {origin + 1}});
      }
    }
  }
  const std::size_t distinct = records.size();
  for (std::size_t i = 0; i < distinct / 20; ++i) {
    bgp::Pfx2As6Record copy = records[rng.bounded(distinct)];
    copy.origins.push_back(static_cast<std::uint32_t>(rng.bounded(65536)));
    records.push_back(std::move(copy));
  }
  for (std::size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.bounded(i)]);
  }
  std::vector<net::Ipv6Address> hitlist;
  const std::size_t hot = routes.size() / 4;
  while (hitlist.size() < 60000) {
    const net::Ipv6Prefix route =
        routes[rng.chance(0.7) ? rng.bounded(hot) : rng.bounded(routes.size())];
    const std::uint64_t span =
        route.length() >= 64 ? 1 : std::uint64_t{1} << (64 - route.length());
    hitlist.emplace_back(
        route.network().hi() + rng.bounded(std::min<std::uint64_t>(span, 64)),
        1 + rng.bounded(4096));
  }

  const auto table = bgp::RoutingTable6::from_pfx2as(records);
  const auto partition = table.m_partition();
  std::vector<std::uint32_t> counts(partition.size(), 0);
  std::uint64_t attributed = 0, unattributed = 0;
  partition.tally_cells(std::span<const net::Ipv6Address>(hitlist), counts,
                        attributed, unattributed);

  util::Fnv1a64 h;
  hash_routes(h, table.routes());
  h.update_u64(table.advertised_units());
  hash_plan(h, partition, counts);
  hash_lpm(h, nested_index<net::Ipv6Family>(table.routes()));

  EXPECT_GT(partition.size(), 10000u);
  EXPECT_GT(attributed, 50000u);
  EXPECT_EQ(h.digest(), kGoldenV6) << "v6 digest is " << hex(h.digest());
}

}  // namespace
}  // namespace tass
