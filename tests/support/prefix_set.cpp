#include "support/prefix_set.hpp"

#include <algorithm>

namespace tass::trie {

PrefixSet::PrefixSet(std::span<const net::Prefix> prefixes) {
  for (const net::Prefix prefix : prefixes) insert(prefix);
}

bool PrefixSet::insert(net::Prefix prefix) {
  return trie_.insert(prefix, std::monostate{});
}

bool PrefixSet::erase(net::Prefix prefix) noexcept {
  return trie_.erase(prefix);
}

bool PrefixSet::contains(net::Prefix prefix) const noexcept {
  return trie_.contains(prefix);
}

std::optional<net::Prefix> PrefixSet::longest_match(
    net::Ipv4Address addr) const {
  const auto match = trie_.longest_match(addr);
  if (!match) return std::nullopt;
  return match->first;
}

std::optional<net::Prefix> PrefixSet::shortest_match(
    net::Ipv4Address addr) const {
  const auto match = trie_.shortest_match(addr);
  if (!match) return std::nullopt;
  return match->first;
}

bool PrefixSet::covers(net::Ipv4Address addr) const {
  return trie_.shortest_match(addr).has_value();
}

bool PrefixSet::has_strict_ancestor(net::Prefix prefix) const noexcept {
  return trie_.has_strict_ancestor(prefix);
}

std::vector<net::Prefix> PrefixSet::within(net::Prefix scope) const {
  std::vector<net::Prefix> out;
  trie_.for_each_within(
      scope, [&](net::Prefix p, const std::monostate&) { out.push_back(p); });
  return out;
}

std::vector<net::Prefix> PrefixSet::to_vector() const {
  std::vector<net::Prefix> out;
  out.reserve(trie_.size());
  trie_.for_each(
      [&](net::Prefix p, const std::monostate&) { out.push_back(p); });
  return out;
}

void LinearPrefixSet::insert(net::Prefix prefix) {
  const auto it = std::lower_bound(prefixes_.begin(), prefixes_.end(), prefix);
  if (it == prefixes_.end() || *it != prefix) prefixes_.insert(it, prefix);
}

bool LinearPrefixSet::erase(net::Prefix prefix) noexcept {
  const auto it = std::lower_bound(prefixes_.begin(), prefixes_.end(), prefix);
  if (it == prefixes_.end() || *it != prefix) return false;
  prefixes_.erase(it);
  return true;
}

bool LinearPrefixSet::contains(net::Prefix prefix) const noexcept {
  return std::binary_search(prefixes_.begin(), prefixes_.end(), prefix);
}

std::optional<net::Prefix> LinearPrefixSet::longest_match(
    net::Ipv4Address addr) const {
  std::optional<net::Prefix> best;
  for (const net::Prefix prefix : prefixes_) {
    if (prefix.contains(addr) &&
        (!best || prefix.length() > best->length())) {
      best = prefix;
    }
  }
  return best;
}

std::optional<net::Prefix> LinearPrefixSet::shortest_match(
    net::Ipv4Address addr) const {
  std::optional<net::Prefix> best;
  for (const net::Prefix prefix : prefixes_) {
    if (prefix.contains(addr) &&
        (!best || prefix.length() < best->length())) {
      best = prefix;
    }
  }
  return best;
}

bool LinearPrefixSet::has_strict_ancestor(net::Prefix prefix) const noexcept {
  return std::any_of(prefixes_.begin(), prefixes_.end(),
                     [&](net::Prefix candidate) {
                       return candidate != prefix &&
                              candidate.contains(prefix);
                     });
}

std::vector<net::Prefix> LinearPrefixSet::within(net::Prefix scope) const {
  std::vector<net::Prefix> out;
  for (const net::Prefix prefix : prefixes_) {
    if (scope.contains(prefix)) out.push_back(prefix);
  }
  return out;
}

}  // namespace tass::trie
