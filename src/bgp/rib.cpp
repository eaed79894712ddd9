#include "bgp/rib.hpp"

#include <algorithm>

#include "bgp/deaggregate.hpp"
#include "util/error.hpp"

namespace tass::bgp {

namespace {

void merge_origins(std::vector<std::uint32_t>& into,
                   std::span<const std::uint32_t> from) {
  for (const std::uint32_t asn : from) {
    if (std::find(into.begin(), into.end(), asn) == into.end()) {
      into.push_back(asn);
    }
  }
}

// Sorts (prefix, record position) pairs and folds each run of one prefix
// into a route. The position breaks ties, so a run lists its records in
// input order and the merged origins keep their first-seen order.
template <class Family, class Record, class AddOrigins>
std::vector<BasicRouteEntry<Family>> merge_records(
    std::span<const Record> records, AddOrigins add_origins) {
  struct Keyed {
    typename Family::Prefix prefix;
    std::size_t position;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    keyed.push_back({records[i].prefix, i});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return a.prefix < b.prefix ||
           (a.prefix == b.prefix && a.position < b.position);
  });
  std::vector<BasicRouteEntry<Family>> routes;
  for (std::size_t i = 0; i < keyed.size();) {
    BasicRouteEntry<Family>& route = routes.emplace_back();
    route.prefix = keyed[i].prefix;
    for (; i < keyed.size() && keyed[i].prefix == route.prefix; ++i) {
      add_origins(route.origins, records[keyed[i].position]);
    }
  }
  return routes;
}

}  // namespace

template <class Family>
BasicRoutingTable<Family> BasicRoutingTable<Family>::from_pfx2as(
    std::span<const Record> records) {
  BasicRoutingTable table;
  table.routes_ = merge_records<Family>(
      records, [](std::vector<std::uint32_t>& into, const Record& record) {
        merge_origins(into, record.origins);
      });
  table.finalize();
  return table;
}

template <class Family>
BasicRoutingTable<Family> BasicRoutingTable<Family>::from_mrt(
    const MrtRibDump& dump)
  requires std::same_as<Family, net::Ipv4Family>
{
  BasicRoutingTable table;
  table.routes_ = merge_records<Family>(
      std::span<const MrtRibRecord>(dump.records),
      [](std::vector<std::uint32_t>& into, const MrtRibRecord& record) {
        for (const MrtRibEntry& entry : record.entries) {
          merge_origins(into, entry.origin_set());
        }
      });
  table.finalize();
  return table;
}

template <class Family>
void BasicRoutingTable<Family>::finalize() {
  // In (network, length) order every ancestor sorts before its
  // descendants, so a stack of the current containment chain classifies
  // each route in one pass. The chain depth also says which routes tile
  // which space: l-prefixes (depth 0) tile the advertised space, and the
  // outermost m-prefixes (depth 1) tile the union of the m-prefixes.
  std::vector<Prefix> chain;
  for (Entry& route : routes_) {
    while (!chain.empty() && !chain.back().contains(route.prefix)) {
      chain.pop_back();
    }
    route.more_specific = !chain.empty();
    const std::uint64_t units = Family::prefix_units(route.prefix);
    if (chain.empty()) {
      advertised_units_ = net::saturating_add(advertised_units_, units);
    } else if (chain.size() == 1) {
      m_units_ = net::saturating_add(m_units_, units);
    }
    chain.push_back(route.prefix);
  }
}

template <class Family>
auto BasicRoutingTable<Family>::l_prefixes() const -> std::vector<Prefix> {
  std::vector<Prefix> out;
  for (const Entry& route : routes_) {
    if (!route.more_specific) out.push_back(route.prefix);
  }
  return out;
}

template <class Family>
auto BasicRoutingTable<Family>::m_prefixes() const -> std::vector<Prefix> {
  std::vector<Prefix> out;
  for (const Entry& route : routes_) {
    if (route.more_specific) out.push_back(route.prefix);
  }
  return out;
}

template <class Family>
BasicPrefixPartition<Family> BasicRoutingTable<Family>::l_partition() const {
  return BasicPrefixPartition<Family>(l_prefixes());
}

template <class Family>
BasicPrefixPartition<Family> BasicRoutingTable<Family>::m_partition() const {
  // Group announced more-specifics under their covering l-prefix, then
  // deaggregate each l-prefix (Figure 2). Routes are sorted, so the
  // more-specifics of an l-prefix immediately follow it, and the cells
  // come out ascending.
  std::vector<Prefix> cells;
  std::vector<Prefix> inside;
  std::size_t i = 0;
  while (i < routes_.size()) {
    TASS_ENSURES(!routes_[i].more_specific);
    const Prefix covering = routes_[i].prefix;
    inside.clear();
    std::size_t j = i + 1;
    while (j < routes_.size() && covering.contains(routes_[j].prefix)) {
      inside.push_back(routes_[j].prefix);
      ++j;
    }
    if (inside.empty()) {
      cells.push_back(covering);
    } else {
      const auto tiles =
          deaggregate(covering, std::span<const Prefix>(inside));
      cells.insert(cells.end(), tiles.begin(), tiles.end());
    }
    i = j;
  }
  return BasicPrefixPartition<Family>(std::move(cells));
}

template <class Family>
RibStats BasicRoutingTable<Family>::stats() const {
  RibStats stats;
  stats.prefix_count = routes_.size();
  stats.m_prefix_count = static_cast<std::size_t>(
      std::count_if(routes_.begin(), routes_.end(),
                    [](const Entry& r) { return r.more_specific; }));
  stats.advertised_addresses = advertised_units_;
  stats.m_prefix_addresses = m_units_;
  if (stats.prefix_count > 0) {
    stats.m_prefix_fraction =
        static_cast<double>(stats.m_prefix_count) /
        static_cast<double>(stats.prefix_count);
  }
  if (stats.advertised_addresses > 0) {
    stats.m_prefix_space_fraction =
        static_cast<double>(stats.m_prefix_addresses) /
        static_cast<double>(stats.advertised_addresses);
  }
  return stats;
}

template <class Family>
auto BasicRoutingTable<Family>::to_pfx2as() const -> std::vector<Record> {
  std::vector<Record> records;
  records.reserve(routes_.size());
  for (const Entry& route : routes_) {
    records.push_back(Record{route.prefix, route.origins});
  }
  return records;
}

template class BasicRoutingTable<net::Ipv4Family>;
template class BasicRoutingTable<net::Ipv6Family>;

}  // namespace tass::bgp
