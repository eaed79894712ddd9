// Randomized differential suite for bgp::BasicRoutingTable: the
// sort-and-sweep construction against a naive in-test reference (linear
// merge in input order, quadratic containment classification, interval
// union accounting) on seeded, unsorted record sets with duplicate
// records, multi-origin sets, repeated origins, nested chains and the
// /0, /32 and /128 edges — for v4 from_pfx2as, v4 from_mrt and v6.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bgp/mrt.hpp"
#include "bgp/rib.hpp"
#include "net/interval.hpp"
#include "util/rng.hpp"

namespace tass::bgp {
namespace {

template <class Family>
struct Reference {
  std::vector<BasicRouteEntry<Family>> routes;
  std::uint64_t advertised_units = 0;
};

void add_origins(std::vector<std::uint32_t>& into,
                 const std::vector<std::uint32_t>& from) {
  for (const std::uint32_t asn : from) {
    if (std::find(into.begin(), into.end(), asn) == into.end()) {
      into.push_back(asn);
    }
  }
}

// Merges (prefix, origins) pairs in input order, then sorts and
// classifies by brute force.
template <class Family>
Reference<Family> reference(
    const std::vector<std::pair<typename Family::Prefix,
                                std::vector<std::uint32_t>>>& input) {
  Reference<Family> ref;
  for (const auto& [prefix, origins] : input) {
    auto it = std::find_if(ref.routes.begin(), ref.routes.end(),
                           [&](const auto& r) { return r.prefix == prefix; });
    if (it == ref.routes.end()) {
      ref.routes.push_back({prefix, {}, false});
      it = ref.routes.end() - 1;
    }
    add_origins(it->origins, origins);
  }
  std::sort(ref.routes.begin(), ref.routes.end(),
            [](const auto& a, const auto& b) { return a.prefix < b.prefix; });
  for (auto& route : ref.routes) {
    route.more_specific = std::any_of(
        ref.routes.begin(), ref.routes.end(), [&](const auto& other) {
          return other.prefix != route.prefix &&
                 other.prefix.contains(route.prefix);
        });
    if (!route.more_specific) {
      ref.advertised_units = net::saturating_add(
          ref.advertised_units, Family::prefix_units(route.prefix));
    }
  }
  return ref;
}

std::vector<std::uint32_t> random_origins(util::Rng& rng) {
  std::vector<std::uint32_t> origins;
  const auto count = 1 + rng.bounded(3);
  for (std::uint64_t i = 0; i < count; ++i) {
    origins.push_back(static_cast<std::uint32_t>(64500 + rng.bounded(8)));
  }
  return origins;
}

// A pool of prefixes with long containment chains: each chain starts at
// a random (sometimes /0) prefix and keeps extending it by a few bits,
// now and then flipping a key bit past the current length so the chain
// branches into siblings under the prefixes already emitted.
template <class Family>
std::vector<typename Family::Prefix> prefix_pool(util::Rng& rng) {
  std::vector<typename Family::Prefix> pool;
  for (int chain = 0; chain < 24; ++chain) {
    net::AddressKey key{rng(), rng()};
    int length = rng.chance(0.1)
                     ? 0
                     : static_cast<int>(rng.bounded(Family::kBits));
    for (;;) {
      pool.push_back(Family::make_prefix(key, length));
      if (length == Family::kBits || rng.chance(0.1)) break;
      if (rng.chance(0.3)) {
        const auto bit = static_cast<int>(
            static_cast<std::uint64_t>(length) +
            rng.bounded(static_cast<std::uint64_t>(Family::kBits - length)));
        if (bit < 64) {
          key.hi ^= 1ull << (63 - bit);
        } else {
          key.lo ^= 1ull << (127 - bit);
        }
      }
      length = std::min(Family::kBits,
                        length + 1 + static_cast<int>(rng.bounded(12)));
    }
  }
  return pool;
}

template <class Family>
void expect_equal(const BasicRoutingTable<Family>& table,
                  const Reference<Family>& ref) {
  ASSERT_EQ(table.size(), ref.routes.size());
  for (std::size_t i = 0; i < ref.routes.size(); ++i) {
    const auto& got = table.routes()[i];
    const auto& want = ref.routes[i];
    ASSERT_EQ(got.prefix, want.prefix) << i;
    EXPECT_EQ(got.origins, want.origins) << want.prefix.to_string();
    EXPECT_EQ(got.more_specific, want.more_specific)
        << want.prefix.to_string();
  }
  EXPECT_EQ(table.advertised_units(), ref.advertised_units);
  // The generator must exercise nesting and origin merging at all.
  const auto nested = std::count_if(
      ref.routes.begin(), ref.routes.end(),
      [](const auto& r) { return r.more_specific; });
  const auto merged = std::count_if(
      ref.routes.begin(), ref.routes.end(),
      [](const auto& r) { return r.origins.size() > 2; });
  EXPECT_GT(nested, static_cast<std::ptrdiff_t>(ref.routes.size() / 2));
  EXPECT_GT(merged, 10);
}

// The v4 stats: counts, and the address unions through net::IntervalSet.
void expect_v4_stats(const RoutingTable& table,
                     const Reference<net::Ipv4Family>& ref) {
  net::IntervalSet all, m_space;
  std::size_t m_count = 0;
  for (const auto& route : ref.routes) {
    all.insert(route.prefix);
    if (route.more_specific) {
      m_space.insert(route.prefix);
      ++m_count;
    }
  }
  const RibStats stats = table.stats();
  EXPECT_EQ(stats.prefix_count, ref.routes.size());
  EXPECT_EQ(stats.m_prefix_count, m_count);
  EXPECT_EQ(stats.advertised_addresses, all.address_count());
  EXPECT_EQ(stats.m_prefix_addresses, m_space.address_count());
  EXPECT_EQ(table.advertised_units(), all.address_count());
}

template <class Family, class Record>
std::vector<Record> shuffled_records(util::Rng& rng) {
  const auto pool = prefix_pool<Family>(rng);
  std::vector<Record> records;
  const std::size_t count = pool.size() * 2;
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back({pool[rng.bounded(pool.size())], random_origins(rng)});
  }
  return records;
}

TEST(RoutingTableDifferential, V4FromPfx2AsMatchesReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    util::Rng rng(seed);
    auto records = shuffled_records<net::Ipv4Family, Pfx2AsRecord>(rng);
    records.push_back({net::Prefix::parse_or_throw("0.0.0.0/0"), {1}});
    records.push_back(
        {net::Prefix::parse_or_throw("255.255.255.255/32"), {2, 2, 3}});
    std::vector<std::pair<net::Prefix, std::vector<std::uint32_t>>> input;
    for (const auto& record : records) {
      input.emplace_back(record.prefix, record.origins);
    }
    const auto ref = reference<net::Ipv4Family>(input);
    const auto table = RoutingTable::from_pfx2as(records);
    SCOPED_TRACE(seed);
    expect_equal(table, ref);
    expect_v4_stats(table, ref);
    // to_pfx2as round-trips the merged routes.
    EXPECT_EQ(RoutingTable::from_pfx2as(table.to_pfx2as()).routes().size(),
              table.size());
  }
}

TEST(RoutingTableDifferential, V4FromMrtMatchesReference) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    util::Rng rng(seed);
    const auto pool = prefix_pool<net::Ipv4Family>(rng);
    MrtRibDump dump;
    std::vector<std::pair<net::Prefix, std::vector<std::uint32_t>>> input;
    for (std::size_t i = 0; i < pool.size() * 2; ++i) {
      MrtRibRecord record;
      record.prefix = pool[rng.bounded(pool.size())];
      std::vector<std::uint32_t> origins;
      const auto entries = rng.bounded(4);  // zero entries is legal
      for (std::uint64_t e = 0; e < entries; ++e) {
        MrtRibEntry entry;
        entry.as_path.push_back(
            {AsPathSegment::Kind::kAsSequence,
             {3356, static_cast<std::uint32_t>(64500 + rng.bounded(6))}});
        if (rng.chance(0.3)) {  // AS_SET-terminated: every member counts
          entry.as_path.push_back(
              {AsPathSegment::Kind::kAsSet,
               {static_cast<std::uint32_t>(64500 + rng.bounded(6)),
                static_cast<std::uint32_t>(64500 + rng.bounded(6))}});
        }
        add_origins(origins, entry.origin_set());
        record.entries.push_back(std::move(entry));
      }
      input.emplace_back(record.prefix, origins);
      dump.records.push_back(std::move(record));
    }
    const auto ref = reference<net::Ipv4Family>(input);
    const auto table = RoutingTable::from_mrt(dump);
    SCOPED_TRACE(seed);
    expect_equal(table, ref);
    expect_v4_stats(table, ref);
  }
}

TEST(RoutingTableDifferential, V6FromPfx2AsMatchesReference) {
  for (const std::uint64_t seed : {21ull, 22ull, 23ull, 24ull, 25ull}) {
    util::Rng rng(seed);
    auto records = shuffled_records<net::Ipv6Family, Pfx2As6Record>(rng);
    records.push_back({net::Ipv6Prefix::parse_or_throw("::/0"), {1}});
    records.push_back(
        {net::Ipv6Prefix::parse_or_throw(
             "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"),
         {2, 3, 2}});
    std::vector<std::pair<net::Ipv6Prefix, std::vector<std::uint32_t>>> input;
    for (const auto& record : records) {
      input.emplace_back(record.prefix, record.origins);
    }
    const auto ref = reference<net::Ipv6Family>(input);
    const auto table = RoutingTable6::from_pfx2as(records);
    SCOPED_TRACE(seed);
    expect_equal(table, ref);
    const RibStats stats = table.stats();
    EXPECT_EQ(stats.prefix_count, ref.routes.size());
    EXPECT_EQ(stats.advertised_addresses, ref.advertised_units);
  }
}

TEST(RoutingTableDifferential, EmptyInputsBuildEmptyTables) {
  EXPECT_TRUE(RoutingTable::from_pfx2as({}).empty());
  EXPECT_TRUE(RoutingTable::from_mrt(MrtRibDump{}).empty());
  EXPECT_EQ(RoutingTable6::from_pfx2as({}).advertised_units(), 0u);
  EXPECT_EQ(RoutingTable::from_pfx2as({}).stats().m_prefix_space_fraction,
            0.0);
}

}  // namespace
}  // namespace tass::bgp
