// BasicRoutingTable: the announced-prefix view of the Internet used by
// TASS, generic over the address family (RoutingTable for IPv4,
// RoutingTable6 for IPv6).
//
// Built from CAIDA pfx2as records (or, for IPv4, a decoded MRT RIB dump),
// it merges duplicate records, classifies every announced prefix as less
// specific (l-prefix: not contained in any other announced prefix) or
// more specific (m-prefix), accounts for the advertised space, and
// produces the two scanning partitions the paper evaluates: the
// l-partition and the deaggregated m-partition (Figure 2's tiler, run on
// the family's prefixes).
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "bgp/mrt.hpp"
#include "bgp/partition.hpp"
#include "bgp/pfx2as.hpp"
#include "net/family.hpp"

namespace tass::bgp {

/// One announced prefix with merged origin information.
template <class Family>
struct BasicRouteEntry {
  typename Family::Prefix prefix;
  std::vector<std::uint32_t> origins;  // union, in first-seen order
  bool more_specific = false;  // contained in another announced prefix

  friend bool operator==(const BasicRouteEntry&,
                         const BasicRouteEntry&) = default;
};

/// Aggregate statistics, mirroring the §3.2 accounting (e.g. the 2015-09-07
/// CAIDA dump: 595,644 prefixes, 54% m-prefixes, 34.4% of space in them).
/// Space is in the family's scan units: addresses for IPv4, /64 subnets
/// (saturating) for IPv6.
struct RibStats {
  std::size_t prefix_count = 0;
  std::size_t m_prefix_count = 0;
  std::uint64_t advertised_addresses = 0;    // union over all prefixes
  std::uint64_t m_prefix_addresses = 0;      // union over m-prefixes only
  double m_prefix_fraction = 0.0;            // by count
  double m_prefix_space_fraction = 0.0;      // by advertised addresses
};

template <class Family>
class BasicRoutingTable {
 public:
  using Prefix = typename Family::Prefix;
  using Entry = BasicRouteEntry<Family>;
  using Record = std::conditional_t<Family::kBits == 32, Pfx2AsRecord,
                                    Pfx2As6Record>;

  BasicRoutingTable() = default;

  /// Builds from pfx2as records. Duplicate prefixes merge their origins.
  static BasicRoutingTable from_pfx2as(std::span<const Record> records);

  /// Builds from a decoded MRT RIB dump; per-prefix origins are the union
  /// of origin ASes over all RIB entries (multi-origin prefixes keep all).
  static BasicRoutingTable from_mrt(const MrtRibDump& dump)
    requires std::same_as<Family, net::Ipv4Family>;

  /// Announced routes, ascending by (network, length); classification
  /// already applied.
  std::span<const Entry> routes() const noexcept { return routes_; }
  std::size_t size() const noexcept { return routes_.size(); }
  bool empty() const noexcept { return routes_.empty(); }

  /// All l-prefixes (ascending). Pairwise disjoint by construction.
  std::vector<Prefix> l_prefixes() const;
  /// All announced m-prefixes (ascending).
  std::vector<Prefix> m_prefixes() const;

  /// The l-partition: one cell per l-prefix.
  BasicPrefixPartition<Family> l_partition() const;

  /// The m-partition: every l-prefix deaggregated around its announced
  /// more-specifics (Figure 2); exactly tiles the advertised space.
  BasicPrefixPartition<Family> m_partition() const;

  /// The advertised space (union of all announced prefixes) in scan
  /// units; the l-prefixes tile it, so it is their sum (saturating).
  std::uint64_t advertised_units() const noexcept {
    return advertised_units_;
  }

  RibStats stats() const;

  /// Export back to pfx2as records (for interchange and tests).
  std::vector<Record> to_pfx2as() const;

 private:
  // Classifies and accounts routes_, which must be ascending and unique.
  void finalize();

  std::vector<Entry> routes_;
  std::uint64_t advertised_units_ = 0;
  std::uint64_t m_units_ = 0;  // union of the m-prefixes
};

/// The family instantiations under their historical names.
using RouteEntry = BasicRouteEntry<net::Ipv4Family>;
using Route6Entry = BasicRouteEntry<net::Ipv6Family>;
using RoutingTable = BasicRoutingTable<net::Ipv4Family>;
using RoutingTable6 = BasicRoutingTable<net::Ipv6Family>;

extern template class BasicRoutingTable<net::Ipv4Family>;
extern template class BasicRoutingTable<net::Ipv6Family>;

}  // namespace tass::bgp
