#include "trie/lpm_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "trie/lpm_index6.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tass::trie {
namespace {

net::Ipv4Address addr(std::string_view text) {
  return net::Ipv4Address::parse_or_throw(text);
}

net::Prefix pfx(std::string_view text) {
  return net::Prefix::parse_or_throw(text);
}

TEST(LpmIndexTest, EmptyIndexMatchesNothing) {
  const LpmIndex index;
  EXPECT_EQ(index.lookup(addr("0.0.0.0")), LpmIndex::kNoMatch);
  EXPECT_EQ(index.lookup(addr("255.255.255.255")), LpmIndex::kNoMatch);
  EXPECT_FALSE(index.covers(addr("10.0.0.1")));
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.prefix_count(), 0u);
}

TEST(LpmIndexTest, EmptyTableMatchesNothing) {
  const LpmIndex index{std::span<const LpmIndex::Entry>{}};
  EXPECT_EQ(index.lookup(addr("192.0.2.1")), LpmIndex::kNoMatch);
  EXPECT_TRUE(index.empty());
}

TEST(LpmIndexTest, DefaultRouteCoversEverything) {
  const std::vector<LpmIndex::Entry> table{{pfx("0.0.0.0/0"), 7}};
  const LpmIndex index(table);
  EXPECT_EQ(index.lookup(addr("0.0.0.0")), 7u);
  EXPECT_EQ(index.lookup(addr("255.255.255.255")), 7u);
  EXPECT_EQ(index.lookup(addr("128.66.7.9")), 7u);
  EXPECT_EQ(index.prefix_count(), 1u);
}

TEST(LpmIndexTest, LongestMatchWinsAcrossNesting) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("0.0.0.0/0"), 0},     {pfx("10.0.0.0/8"), 1},
      {pfx("10.64.0.0/10"), 2},  {pfx("10.64.0.0/24"), 3},
      {pfx("10.64.0.128/25"), 4}, {pfx("10.64.0.129/32"), 5},
  };
  const LpmIndex index(table);
  EXPECT_EQ(index.lookup(addr("192.0.2.1")), 0u);
  EXPECT_EQ(index.lookup(addr("10.255.0.1")), 1u);
  EXPECT_EQ(index.lookup(addr("10.64.1.0")), 2u);
  EXPECT_EQ(index.lookup(addr("10.64.0.5")), 3u);
  EXPECT_EQ(index.lookup(addr("10.64.0.128")), 4u);
  EXPECT_EQ(index.lookup(addr("10.64.0.129")), 5u);
  EXPECT_EQ(index.lookup(addr("10.64.0.130")), 4u);
}

TEST(LpmIndexTest, BoundariesOfAPrefixAreExact) {
  const std::vector<LpmIndex::Entry> table{{pfx("198.51.100.0/24"), 42}};
  const LpmIndex index(table);
  EXPECT_EQ(index.lookup(addr("198.51.99.255")), LpmIndex::kNoMatch);
  EXPECT_EQ(index.lookup(addr("198.51.100.0")), 42u);
  EXPECT_EQ(index.lookup(addr("198.51.100.255")), 42u);
  EXPECT_EQ(index.lookup(addr("198.51.101.0")), LpmIndex::kNoMatch);
}

TEST(LpmIndexTest, AdjacentSlash32s) {
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 8; ++i) {
    table.push_back(
        {net::Prefix(net::Ipv4Address(0xc6336400u + i), 32), 100 + i});
  }
  const LpmIndex index(table);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(index.lookup(net::Ipv4Address(0xc6336400u + i)), 100 + i);
  }
  EXPECT_EQ(index.lookup(net::Ipv4Address(0xc6336400u - 1)),
            LpmIndex::kNoMatch);
  EXPECT_EQ(index.lookup(net::Ipv4Address(0xc6336400u + 8)),
            LpmIndex::kNoMatch);
}

TEST(LpmIndexTest, DuplicatePrefixLastValueWins) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("203.0.113.0/24"), 1},
      {pfx("203.0.113.0/24"), 9},
  };
  const LpmIndex index(table);
  EXPECT_EQ(index.lookup(addr("203.0.113.7")), 9u);
  EXPECT_EQ(index.prefix_count(), 1u);  // distinct prefixes
}

TEST(LpmIndexTest, ExtremeAddressesWithEdgePrefixes) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("0.0.0.0/32"), 1},
      {pfx("255.255.255.255/32"), 2},
      {pfx("255.255.255.254/31"), 3},
  };
  const LpmIndex index(table);
  EXPECT_EQ(index.lookup(addr("0.0.0.0")), 1u);
  EXPECT_EQ(index.lookup(addr("0.0.0.1")), LpmIndex::kNoMatch);
  EXPECT_EQ(index.lookup(addr("255.255.255.255")), 2u);
  EXPECT_EQ(index.lookup(addr("255.255.255.254")), 3u);
  EXPECT_EQ(index.lookup(addr("255.255.255.253")), LpmIndex::kNoMatch);
}

TEST(LpmIndexTest, ValueOutOfRangeThrows) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("10.0.0.0/8"), LpmIndex::kNoMatch}};
  EXPECT_THROW(LpmIndex{table}, Error);
}

TEST(LpmIndexTest, LookupManyMatchesScalarLookup) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("10.0.0.0/8"), 1},
      {pfx("10.2.0.0/15"), 2},
      {pfx("172.16.0.0/12"), 3},
  };
  const LpmIndex index(table);
  std::vector<std::uint32_t> addresses;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    addresses.push_back(0x09000000u + i * 0x00020301u);  // spread widely
  }
  const auto batched = index.lookup_many(addresses);
  ASSERT_EQ(batched.size(), addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    EXPECT_EQ(batched[i], index.lookup(net::Ipv4Address(addresses[i])));
  }
}

TEST(LpmIndexTest, FromPrefixesBuildsMembershipIndex) {
  const std::vector<net::Prefix> prefixes{pfx("192.0.2.0/24"),
                                          pfx("198.18.0.0/15")};
  const LpmIndex index = LpmIndex::from_prefixes(prefixes);
  EXPECT_TRUE(index.covers(addr("192.0.2.200")));
  EXPECT_TRUE(index.covers(addr("198.19.255.255")));
  EXPECT_FALSE(index.covers(addr("192.0.3.0")));
  EXPECT_EQ(index.lookup(addr("192.0.2.200")), 0u);
}

TEST(LpmIndexTest, StatsAreConsistent) {
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 256; ++i) {
    table.push_back({net::Prefix(net::Ipv4Address(i << 24), 8), i});
  }
  const LpmIndex index(table);
  EXPECT_EQ(index.prefix_count(), 256u);
  // /8s resolve entirely inside the 16-bit root: no deep nodes needed.
  EXPECT_EQ(index.node_count(), 0u);
  EXPECT_GE(index.memory_bytes(), (1u << 16) * sizeof(std::uint32_t));
  for (std::uint32_t i = 0; i < 256; ++i) {
    EXPECT_EQ(index.lookup(net::Ipv4Address((i << 24) | 0x00ffffffu)), i);
  }
}

// ---- direct build from the sorted entries -----------------------------

// Naive longest match over a raw table (last duplicate wins).
template <class Family>
std::uint32_t oracle(
    const std::vector<typename BasicLpmIndex<Family>::Entry>& table,
    typename Family::Address address) {
  int best_length = -1;
  std::uint32_t best = BasicLpmIndex<Family>::kNoMatch;
  for (const auto& entry : table) {
    if (entry.prefix.contains(address) &&
        entry.prefix.length() >= best_length) {
      best_length = entry.prefix.length();
      best = entry.value;
    }
  }
  return best;
}

// Looks up the first and last address of every entry, one address to
// either side, and a deterministic spread, against the oracle.
void expect_matches_oracle(const std::vector<LpmIndex::Entry>& table) {
  const LpmIndex index(table);
  std::vector<std::uint32_t> probes{0u, 0xffffffffu};
  for (const auto& entry : table) {
    const std::uint32_t first = entry.prefix.network().value();
    const std::uint32_t last = entry.prefix.last().value();
    probes.insert(probes.end(), {first, last, first - 1, last + 1});
  }
  for (std::uint32_t i = 0; i < 2048; ++i) probes.push_back(i * 0x0107f3a1u);
  for (const std::uint32_t probe : probes) {
    const net::Ipv4Address address(probe);
    ASSERT_EQ(index.lookup(address), oracle<net::Ipv4Family>(table, address))
        << address.to_string();
  }
}

TEST(LpmIndexBuildTest, EntriesOnTheV4StrideBoundaries) {
  // Lengths 15-17, 21-23, 27-29 and 32 on one address: each stride
  // boundary (root /16, nodes ending at /22 and /28) and its neighbours.
  std::vector<LpmIndex::Entry> table;
  std::uint32_t value = 1;
  for (const int length : {15, 16, 17, 21, 22, 23, 27, 28, 29, 32}) {
    table.push_back(
        {net::Prefix(net::Ipv4Address(0x0a2b3c4du), length), value++});
  }
  // Siblings exactly on the boundaries elsewhere in the same blocks.
  table.push_back({pfx("10.43.255.252/30"), value++});
  table.push_back({pfx("10.42.0.0/16"), value++});
  table.push_back({pfx("10.43.64.0/22"), value++});
  table.push_back({pfx("10.43.60.64/28"), value++});
  expect_matches_oracle(table);

  const LpmIndex index(table);
  // 10.43.0.0/16 has deeper entries, so its root word is a node; the
  // sibling 10.42.0.0/16 resolves in the root.
  EXPECT_NE(index.raw().root[0x0a2b] & LpmIndex::kNodeFlag, 0u);
  EXPECT_EQ(index.raw().root[0x0a2a], 12u);
}

TEST(LpmIndexBuildTest, DefaultRouteAndDuplicatesLastWins) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("0.0.0.0/0"), 1},      {pfx("192.0.2.0/24"), 2},
      {pfx("0.0.0.0/0"), 3},      {pfx("192.0.2.0/24"), 4},
      {pfx("192.0.2.128/25"), 5}, {pfx("0.0.0.0/0"), 6},
  };
  expect_matches_oracle(table);
  const LpmIndex index(table);
  EXPECT_EQ(index.prefix_count(), 3u);
  EXPECT_EQ(index.lookup(addr("8.8.8.8")), 6u);
  EXPECT_EQ(index.lookup(addr("192.0.2.1")), 4u);
  EXPECT_EQ(index.lookup(addr("192.0.2.129")), 5u);
  // Only 192.0.0.0/16 needs a node (two levels: /22, then /28 slots).
  EXPECT_EQ(index.node_count(), 2u);
}

TEST(LpmIndexBuildTest, RandomNestedTablesMatchTheOracle) {
  for (const std::uint64_t seed : {3ull, 33ull, 333ull}) {
    util::Rng rng(seed);
    std::vector<LpmIndex::Entry> table;
    for (int i = 0; i < 400; ++i) {
      // Clustered networks so prefixes nest and share blocks.
      const auto network = static_cast<std::uint32_t>(
          (rng.bounded(4) << 30) | (rng.bounded(1u << 12) << 4));
      table.push_back(
          {net::Prefix(net::Ipv4Address(network),
                       static_cast<int>(rng.bounded(33))),
           static_cast<std::uint32_t>(rng.bounded(1000))});
    }
    expect_matches_oracle(table);
  }
}

TEST(LpmIndexBuildTest, V6ChainAcrossManyStrides) {
  // One chain from ::/0 down to a /128 through every stride boundary of
  // the v6 schedule (16, 22, ..., 64, ..., 124, 128) and next to it.
  const net::Ipv6Address host = net::Ipv6Address::parse_or_throw(
      "2001:db8:aaaa:bbbb:cccc:dddd:eeee:ffff");
  std::vector<LpmIndex6::Entry> table;
  std::uint32_t value = 0;
  for (int length = 0; length <= 128; length += 3) {
    table.push_back({net::Ipv6Prefix(host, length), value++});
  }
  for (const int length : {16, 22, 64, 65, 124, 127, 128}) {
    table.push_back({net::Ipv6Prefix(host, length), value++});
  }
  const LpmIndex6 index(table);
  EXPECT_EQ(index.node_count(), 19u);  // one node per level below the root
  const auto probe = [&](std::uint64_t hi, std::uint64_t lo) {
    const net::Ipv6Address address(hi, lo);
    EXPECT_EQ(index.lookup(address),
              oracle<net::Ipv6Family>(table, address))
        << address.to_string();
  };
  for (int bit = 0; bit < 128; ++bit) {
    // Flip one bit of the host route: the match is the chain entry just
    // above the flipped bit.
    const std::uint64_t hi = host.hi() ^ (bit < 64 ? 1ull << (63 - bit) : 0);
    const std::uint64_t lo = host.lo() ^ (bit < 64 ? 0 : 1ull << (127 - bit));
    probe(hi, lo);
  }
  probe(host.hi(), host.lo());
  probe(0, 0);
  probe(~0ull, ~0ull);
}

// ---- incremental update ---------------------------------------------

// The update() contract: lookups afterwards are bit-identical to a fresh
// index built from the post-change entry table.
void expect_matches_fresh_rebuild(const LpmIndex& patched) {
  const std::vector<LpmIndex::Entry> table(patched.entries().begin(),
                                           patched.entries().end());
  const LpmIndex fresh(table);
  EXPECT_EQ(patched.prefix_count(), fresh.prefix_count());
  // Every stored boundary +/- 1, plus a deterministic spread.
  std::vector<std::uint32_t> probes{0x00000000u, 0xffffffffu};
  for (const auto& entry : table) {
    const std::uint32_t first = entry.prefix.network().value();
    const std::uint32_t last = entry.prefix.last().value();
    probes.insert(probes.end(), {first, last, first - 1, last + 1,
                                 first + (last - first) / 2});
  }
  for (std::uint32_t i = 0; i < 4096; ++i) {
    probes.push_back(i * 0x00fedc01u);
  }
  for (const std::uint32_t probe : probes) {
    const net::Ipv4Address address(probe);
    ASSERT_EQ(patched.lookup(address), fresh.lookup(address))
        << address.to_string();
  }
}

TEST(LpmIndexUpdateTest, InsertEraseAndRevalue) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("10.0.0.0/8"), 1},
      {pfx("10.64.0.0/10"), 2},
      {pfx("172.16.0.0/12"), 3},
  };
  LpmIndex index(table);
  const std::vector<LpmIndex::Entry> upserts{
      {pfx("10.64.0.0/10"), 7},    // value change
      {pfx("192.0.2.0/24"), 8},    // new prefix
      {pfx("10.64.99.0/24"), 9},   // new nested prefix
  };
  const std::vector<net::Prefix> erases{pfx("172.16.0.0/12")};
  const auto stats = index.update(upserts, erases);
  EXPECT_EQ(stats.upserts, 3u);
  EXPECT_EQ(stats.erases, 1u);
  EXPECT_EQ(index.prefix_count(), 4u);
  EXPECT_EQ(index.lookup(addr("10.64.1.1")), 7u);
  EXPECT_EQ(index.lookup(addr("10.64.99.1")), 9u);
  EXPECT_EQ(index.lookup(addr("192.0.2.5")), 8u);
  EXPECT_EQ(index.lookup(addr("172.16.0.1")), LpmIndex::kNoMatch);
  EXPECT_EQ(index.lookup(addr("10.1.2.3")), 1u);
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, UpdateOnEmptyIndexRebuildsFromScratch) {
  LpmIndex index;
  const std::vector<LpmIndex::Entry> upserts{{pfx("198.51.100.0/24"), 4}};
  const auto stats = index.update(upserts, {});
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_EQ(index.lookup(addr("198.51.100.77")), 4u);
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, ShortPrefixDirtiesManyBlocksButStaysCorrect) {
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 64; ++i) {
    table.push_back({net::Prefix(net::Ipv4Address(i << 24 | 0x040000u), 16),
                     i + 1});
  }
  LpmIndex index(table);
  // A /9 covers 128 root blocks; the patch must leaf-push it under the
  // existing /16s without disturbing them.
  const std::vector<LpmIndex::Entry> upserts{{pfx("7.128.0.0/9"), 500}};
  index.update(upserts, {});
  EXPECT_EQ(index.lookup(addr("7.129.0.1")), 500u);
  EXPECT_EQ(index.lookup(addr("7.4.0.1")), 8u);  // untouched /16
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, ValidationFailuresLeaveIndexUntouched) {
  const std::vector<LpmIndex::Entry> table{{pfx("10.0.0.0/8"), 1}};
  LpmIndex index(table);
  const std::vector<LpmIndex::Entry> bad_value{
      {pfx("10.0.0.0/8"), LpmIndex::kNoMatch}};
  EXPECT_THROW(index.update(bad_value, {}), Error);
  const std::vector<net::Prefix> missing{pfx("192.0.2.0/24")};
  EXPECT_THROW(index.update({}, missing), Error);
  const std::vector<LpmIndex::Entry> upsert{{pfx("10.0.0.0/8"), 2}};
  const std::vector<net::Prefix> same{pfx("10.0.0.0/8")};
  EXPECT_THROW(index.update(upsert, same), Error);
  // All three rejections must have left the index bit-identical.
  EXPECT_EQ(index.prefix_count(), 1u);
  EXPECT_EQ(index.lookup(addr("10.1.1.1")), 1u);
}

TEST(LpmIndexUpdateTest, DuplicateUpsertsKeepLastDuplicateErasesCoalesce) {
  const std::vector<LpmIndex::Entry> table{{pfx("10.0.0.0/8"), 1},
                                           {pfx("172.16.0.0/12"), 2}};
  LpmIndex index(table);
  const std::vector<LpmIndex::Entry> upserts{{pfx("192.0.2.0/24"), 3},
                                             {pfx("192.0.2.0/24"), 4}};
  const std::vector<net::Prefix> erases{pfx("172.16.0.0/12"),
                                        pfx("172.16.0.0/12")};
  index.update(upserts, erases);
  EXPECT_EQ(index.lookup(addr("192.0.2.1")), 4u);
  EXPECT_EQ(index.lookup(addr("172.16.0.1")), LpmIndex::kNoMatch);
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, MassiveChurnFallsBackToFullRebuild) {
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 512; ++i) {
    table.push_back({net::Prefix(net::Ipv4Address(i << 23), 9), i});
  }
  LpmIndex index(table);
  // Re-value every prefix: far past the 1/8 churn threshold.
  std::vector<LpmIndex::Entry> upserts;
  for (std::uint32_t i = 0; i < 512; ++i) {
    upserts.push_back({net::Prefix(net::Ipv4Address(i << 23), 9), i + 1000});
  }
  const auto stats = index.update(upserts, {});
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_EQ(index.lookup(addr("0.0.0.1")), 1000u);
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, RepeatedPatchesCompactInsteadOfGrowingForever) {
  util::Rng rng(2024);
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    const auto network = static_cast<std::uint32_t>(rng.bounded(1ull << 32));
    table.push_back({net::Prefix(net::Ipv4Address(network), 24),
                     (network >> 8) & 0xffffu});
  }
  LpmIndex index(table);
  const std::size_t baseline = index.node_count() + index.leaf_count();
  bool compacted = false;
  for (int round = 0; round < 400; ++round) {
    // Re-value a handful of random entries each round; every patch
    // abandons subtrees, so without compaction the arrays would only grow.
    std::vector<LpmIndex::Entry> upserts;
    for (int k = 0; k < 32; ++k) {
      const auto& entry = index.entries()[static_cast<std::size_t>(
          rng.bounded(index.entries().size()))];
      upserts.push_back(
          {entry.prefix, (entry.value + 1 + static_cast<std::uint32_t>(k)) %
                             0x10000u});
    }
    const auto stats = index.update(upserts, {});
    compacted = compacted || stats.compacted || stats.rebuilt;
  }
  EXPECT_TRUE(compacted);
  // Bounded garbage: within the documented 2x-of-last-rebuild envelope
  // (plus the small constant slack), not 400 rounds of accretion.
  EXPECT_LE(index.node_count() + index.leaf_count(), baseline * 3 + 6000);
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, CompactionLeavesTheArraysOfAFreshBuild) {
  util::Rng rng(99);
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 2048; ++i) {
    const auto network = static_cast<std::uint32_t>(rng.bounded(1ull << 32));
    table.push_back({net::Prefix(net::Ipv4Address(network),
                                 17 + static_cast<int>(rng.bounded(16))),
                     i});
  }
  LpmIndex index(table);
  bool compacted = false;
  for (int round = 0; round < 400 && !compacted; ++round) {
    std::vector<LpmIndex::Entry> upserts;
    for (int k = 0; k < 16; ++k) {
      const auto& entry = index.entries()[static_cast<std::size_t>(
          rng.bounded(index.entries().size()))];
      upserts.push_back({entry.prefix, entry.value + 1});
    }
    const auto stats = index.update(upserts, {});
    ASSERT_FALSE(stats.rebuilt);  // small batches must patch
    compacted = stats.compacted;
  }
  ASSERT_TRUE(compacted);
  const std::vector<LpmIndex::Entry> entries(index.entries().begin(),
                                             index.entries().end());
  const LpmIndex fresh(entries);
  const auto a = index.raw();
  const auto b = fresh.raw();
  ASSERT_TRUE(std::equal(a.root.begin(), a.root.end(), b.root.begin(),
                         b.root.end()));
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_EQ(std::memcmp(a.nodes.data(), b.nodes.data(),
                        a.nodes.size() * sizeof(LpmIndex::Node)),
            0);
  EXPECT_TRUE(std::equal(a.leaves.begin(), a.leaves.end(),
                         b.leaves.begin(), b.leaves.end()));
}

TEST(LpmIndexUpdateTest, RandomizedChurnMatchesFreshRebuild) {
  for (const std::uint64_t seed : {7ull, 77ull, 777ull}) {
    util::Rng rng(seed);
    std::vector<LpmIndex::Entry> table;
    for (int i = 0; i < 3000; ++i) {
      const auto network =
          static_cast<std::uint32_t>(rng.bounded(1ull << 32));
      const int length = 8 + static_cast<int>(rng.bounded(25));
      table.push_back({net::Prefix(net::Ipv4Address(network), length),
                       static_cast<std::uint32_t>(rng.bounded(100000))});
    }
    LpmIndex index(table);
    for (int step = 0; step < 8; ++step) {
      std::vector<LpmIndex::Entry> upserts;
      std::vector<net::Prefix> erases;
      for (int k = 0; k < 40; ++k) {
        const auto roll = rng.bounded(3);
        if (roll == 0 && !index.entries().empty()) {
          erases.push_back(
              index.entries()[static_cast<std::size_t>(
                                  rng.bounded(index.entries().size()))]
                  .prefix);
        } else if (roll == 1 && !index.entries().empty()) {
          const auto& entry = index.entries()[static_cast<std::size_t>(
              rng.bounded(index.entries().size()))];
          upserts.push_back(
              {entry.prefix, static_cast<std::uint32_t>(rng.bounded(100000))});
        } else {
          const auto network =
              static_cast<std::uint32_t>(rng.bounded(1ull << 32));
          upserts.push_back(
              {net::Prefix(net::Ipv4Address(network),
                           8 + static_cast<int>(rng.bounded(25))),
               static_cast<std::uint32_t>(rng.bounded(100000))});
        }
      }
      // A prefix drawn for both sides would (correctly) throw; resolve the
      // collision the way a partition does — keep the upsert.
      std::erase_if(erases, [&](net::Prefix p) {
        return std::any_of(upserts.begin(), upserts.end(),
                           [&](const LpmIndex::Entry& e) {
                             return e.prefix == p;
                           });
      });
      std::sort(erases.begin(), erases.end());
      erases.erase(std::unique(erases.begin(), erases.end()), erases.end());
      index.update(upserts, erases);
      expect_matches_fresh_rebuild(index);
    }
  }
}

}  // namespace
}  // namespace tass::trie
