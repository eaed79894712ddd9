// Tests for trie/prefix_trie and the test-side PrefixSet: exact operations
// plus a randomized property sweep against the linear-scan oracle.
#include <gtest/gtest.h>

#include "support/prefix_set.hpp"
#include "trie/prefix_trie.hpp"

#include "util/rng.hpp"

namespace tass::trie {
namespace {

using net::Ipv4Address;
using net::Prefix;

Prefix pfx(const char* text) { return Prefix::parse_or_throw(text); }

TEST(PrefixTrie, InsertFindOverwrite) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_TRUE(trie.insert(pfx("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(pfx("10.0.0.0/8"), 2));  // overwrite
  EXPECT_EQ(trie.size(), 1u);
  ASSERT_NE(trie.find(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*trie.find(pfx("10.0.0.0/8")), 2);
  EXPECT_EQ(trie.find(pfx("10.0.0.0/9")), nullptr);
  EXPECT_EQ(trie.find(pfx("11.0.0.0/8")), nullptr);
}

TEST(PrefixTrie, RootPrefixWorks) {
  PrefixTrie<int> trie;
  trie.insert(pfx("0.0.0.0/0"), 7);
  const auto match = trie.longest_match(Ipv4Address(12345));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->first, pfx("0.0.0.0/0"));
  EXPECT_EQ(match->second, 7);
}

TEST(PrefixTrie, HostRouteWorks) {
  PrefixTrie<int> trie;
  trie.insert(pfx("1.2.3.4/32"), 9);
  EXPECT_TRUE(trie.contains(pfx("1.2.3.4/32")));
  const auto match =
      trie.longest_match(Ipv4Address::parse_or_throw("1.2.3.4"));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->first.length(), 32);
}

TEST(PrefixTrie, LongestAndShortestMatch) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.32.0.0/11"), 11);
  trie.insert(pfx("10.32.0.0/16"), 16);

  const Ipv4Address inner = Ipv4Address::parse_or_throw("10.32.0.5");
  EXPECT_EQ(trie.longest_match(inner)->second, 16);
  EXPECT_EQ(trie.shortest_match(inner)->second, 8);

  const Ipv4Address mid = Ipv4Address::parse_or_throw("10.33.0.1");
  EXPECT_EQ(trie.longest_match(mid)->second, 11);

  const Ipv4Address outer = Ipv4Address::parse_or_throw("10.128.0.1");
  EXPECT_EQ(trie.longest_match(outer)->second, 8);

  EXPECT_FALSE(
      trie.longest_match(Ipv4Address::parse_or_throw("11.0.0.0")));
}

TEST(PrefixTrie, AllMatchesLeastSpecificFirst) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.32.0.0/11"), 11);
  trie.insert(pfx("10.32.0.0/16"), 16);
  const auto matches =
      trie.all_matches(Ipv4Address::parse_or_throw("10.32.0.99"));
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].second, 8);
  EXPECT_EQ(matches[1].second, 11);
  EXPECT_EQ(matches[2].second, 16);
}

TEST(PrefixTrie, HasStrictAncestor) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 0);
  EXPECT_FALSE(trie.has_strict_ancestor(pfx("10.0.0.0/8")));  // self only
  EXPECT_TRUE(trie.has_strict_ancestor(pfx("10.0.0.0/9")));
  EXPECT_TRUE(trie.has_strict_ancestor(pfx("10.200.0.0/16")));
  EXPECT_FALSE(trie.has_strict_ancestor(pfx("11.0.0.0/9")));
  EXPECT_FALSE(trie.has_strict_ancestor(pfx("0.0.0.0/0")));
}

TEST(PrefixTrie, EntriesWithinScope) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 1);
  trie.insert(pfx("10.0.0.0/12"), 2);
  trie.insert(pfx("10.64.0.0/12"), 3);
  trie.insert(pfx("11.0.0.0/8"), 4);

  const auto within = trie.entries_within(pfx("10.0.0.0/8"));
  ASSERT_EQ(within.size(), 3u);
  EXPECT_EQ(within[0].second, 1);  // the scope itself, then ascending
  EXPECT_EQ(within[1].second, 2);
  EXPECT_EQ(within[2].second, 3);

  EXPECT_TRUE(trie.entries_within(pfx("12.0.0.0/8")).empty());
  EXPECT_EQ(trie.entries().size(), 4u);
}

TEST(PrefixTrie, EraseRemovesOnlyExact) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 1);
  trie.insert(pfx("10.0.0.0/12"), 2);
  EXPECT_FALSE(trie.erase(pfx("10.0.0.0/10")));
  EXPECT_TRUE(trie.erase(pfx("10.0.0.0/8")));
  EXPECT_FALSE(trie.erase(pfx("10.0.0.0/8")));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_FALSE(trie.contains(pfx("10.0.0.0/8")));
  EXPECT_TRUE(trie.contains(pfx("10.0.0.0/12")));
  // LPM no longer sees the erased ancestor.
  const auto match =
      trie.longest_match(Ipv4Address::parse_or_throw("10.200.0.1"));
  EXPECT_FALSE(match.has_value());
}

TEST(PrefixTrie, ClearResets) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 1);
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.contains(pfx("10.0.0.0/8")));
  trie.insert(pfx("12.0.0.0/8"), 2);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PrefixSet, BasicSetSemantics) {
  PrefixSet set;
  EXPECT_TRUE(set.insert(pfx("10.0.0.0/8")));
  EXPECT_FALSE(set.insert(pfx("10.0.0.0/8")));
  EXPECT_TRUE(set.contains(pfx("10.0.0.0/8")));
  EXPECT_TRUE(set.covers(Ipv4Address::parse_or_throw("10.9.9.9")));
  EXPECT_FALSE(set.covers(Ipv4Address::parse_or_throw("11.0.0.1")));
  EXPECT_TRUE(set.erase(pfx("10.0.0.0/8")));
  EXPECT_TRUE(set.empty());
}

TEST(PrefixSet, ToVectorAscending) {
  PrefixSet set;
  set.insert(pfx("192.168.0.0/16"));
  set.insert(pfx("10.0.0.0/8"));
  set.insert(pfx("10.0.0.0/12"));
  const auto sorted = set.to_vector();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], pfx("10.0.0.0/8"));
  EXPECT_EQ(sorted[1], pfx("10.0.0.0/12"));
  EXPECT_EQ(sorted[2], pfx("192.168.0.0/16"));
}

// Property sweep: random insert/erase/query workloads must match the
// linear-scan oracle exactly.
class TriePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TriePropertyTest, MatchesLinearOracle) {
  util::Rng rng(GetParam());
  PrefixSet fast;
  LinearPrefixSet slow;

  const auto random_prefix = [&] {
    // Cluster prefixes in a narrow space so containment is common.
    const int length = 6 + static_cast<int>(rng.bounded(20));
    const auto base = static_cast<std::uint32_t>(rng.bounded(1ULL << 12))
                      << 20;
    return Prefix(Ipv4Address(base), length);
  };

  for (int step = 0; step < 3000; ++step) {
    const Prefix prefix = random_prefix();
    const double action = rng.uniform();
    if (action < 0.55) {
      fast.insert(prefix);
      slow.insert(prefix);
    } else if (action < 0.75) {
      EXPECT_EQ(fast.erase(prefix), slow.erase(prefix));
    } else {
      EXPECT_EQ(fast.contains(prefix), slow.contains(prefix));
      EXPECT_EQ(fast.has_strict_ancestor(prefix),
                slow.has_strict_ancestor(prefix));
      const Ipv4Address addr(
          static_cast<std::uint32_t>(rng.bounded(1ULL << 32)));
      EXPECT_EQ(fast.longest_match(addr), slow.longest_match(addr));
      EXPECT_EQ(fast.shortest_match(addr), slow.shortest_match(addr));
      EXPECT_EQ(fast.within(prefix), slow.within(prefix));
    }
    ASSERT_EQ(fast.size(), slow.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriePropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace tass::trie
