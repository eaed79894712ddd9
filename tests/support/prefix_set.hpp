// PrefixSet: a set of CIDR prefixes with containment queries, built on
// PrefixTrie<monostate>. Also provides a deliberately naive linear-scan
// implementation used as the oracle in property-based tests.
//
// Test-side support code (tests/support, linked into trie_test and
// micro_substrates): the library classifies routes with a sorted sweep
// and has no use for it.
#pragma once

#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "trie/prefix_trie.hpp"

namespace tass::trie {

class PrefixSet {
 public:
  PrefixSet() = default;
  explicit PrefixSet(std::span<const net::Prefix> prefixes);

  bool insert(net::Prefix prefix);
  bool erase(net::Prefix prefix) noexcept;
  bool contains(net::Prefix prefix) const noexcept;

  /// Longest stored prefix covering the address, if any.
  std::optional<net::Prefix> longest_match(net::Ipv4Address addr) const;
  /// Shortest (least specific) stored prefix covering the address, if any.
  std::optional<net::Prefix> shortest_match(net::Ipv4Address addr) const;
  /// True if some stored prefix covers the address.
  bool covers(net::Ipv4Address addr) const;
  /// True if some stored prefix strictly contains `prefix`.
  bool has_strict_ancestor(net::Prefix prefix) const noexcept;

  /// Stored prefixes contained within `scope` (incl. exact), ascending.
  std::vector<net::Prefix> within(net::Prefix scope) const;

  /// All stored prefixes, ascending (network, length).
  std::vector<net::Prefix> to_vector() const;

  std::size_t size() const noexcept { return trie_.size(); }
  bool empty() const noexcept { return trie_.empty(); }
  void clear() { trie_.clear(); }

 private:
  PrefixTrie<std::monostate> trie_;
};

/// Reference implementation with identical semantics, O(n) per query.
/// Exists solely so property tests can cross-check PrefixSet/PrefixTrie.
class LinearPrefixSet {
 public:
  void insert(net::Prefix prefix);
  bool erase(net::Prefix prefix) noexcept;
  bool contains(net::Prefix prefix) const noexcept;
  std::optional<net::Prefix> longest_match(net::Ipv4Address addr) const;
  std::optional<net::Prefix> shortest_match(net::Ipv4Address addr) const;
  bool has_strict_ancestor(net::Prefix prefix) const noexcept;
  std::vector<net::Prefix> within(net::Prefix scope) const;
  std::size_t size() const noexcept { return prefixes_.size(); }

 private:
  std::vector<net::Prefix> prefixes_;  // sorted, unique
};

}  // namespace tass::trie
