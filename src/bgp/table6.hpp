// RoutingTable6 — the announced-IPv6 view of a routing table and its two
// partitions (paper §3.2, carried to v6): the IPv6 instantiation of
// bgp::BasicRoutingTable, declared in rib.hpp. Its m-partition comes back
// as bgp::PrefixPartition6, ready for hitlist attribution through the
// shared LPM substrate.
#pragma once

#include "bgp/rib.hpp"
