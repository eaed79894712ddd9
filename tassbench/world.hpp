// The seeded synthetic world every workload starts from, and the input
// files the program under test consumes.
//
//   v4: a RIB-shaped pfx2as table (disjoint buddy-allocated coverings
//       in the scannable unicast space, ~55% announcing nested
//       more-specifics), grown until its m-partition reaches the target
//       cell count; a census population over it (month 0 = the seed
//       scan, month 1 = the next cycle's ground truth).
//   v6: a RIB-shaped pfx2as6 table (/29../48 coverings with /36../56
//       more-specifics) and a hitlist placed in its announced space.
//   churn: an MRT BGP4MP update trace of reorigins and deaggregation
//       splits over the m-partition cells.
//
// Everything is a pure function of the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgp/pfx2as.hpp"
#include "census/snapshot.hpp"
#include "census/topology.hpp"
#include "common.hpp"
#include "net/ipv6.hpp"

namespace tassbench {

struct V4World {
  std::vector<tass::bgp::Pfx2AsRecord> records;
  std::shared_ptr<const tass::census::Topology> topology;
  std::unique_ptr<tass::census::Snapshot> month0;  // the seed scan
  std::unique_ptr<tass::census::Snapshot> month1;  // next cycle's truth
};

struct V6World {
  std::vector<tass::bgp::Pfx2As6Record> records;
  std::vector<tass::net::Ipv6Address> hitlist;
};

/// One churn step: its MRT wire and the number of updates it carries.
struct ChurnStep {
  std::vector<std::byte> wire;
  std::uint64_t updates = 0;
};

/// The stream reactor's bootstrap: one record per m-partition cell
/// (ascending, disjoint) and its month-0 responsive count.
struct CellTable {
  std::vector<tass::bgp::Pfx2AsRecord> cells;
  std::vector<std::uint32_t> counts;
};

V4World make_v4_world(const Sizes& sizes, std::uint64_t seed,
                      bool with_month1);
V6World make_v6_world(const Sizes& sizes, std::uint64_t seed);

/// The m-partition cells of `world` as a reactor bootstrap table, each
/// cell carrying its l-prefix's origin and its month-0 count.
CellTable make_cell_table(const V4World& world);

/// `steps` steps of `per_step` touched cells each: ~45% deaggregation
/// splits (withdraw the cell, announce both halves), the rest reorigins.
/// Outcomes are invariant under the reactor queue's newest-wins folding.
std::vector<ChurnStep> make_churn_trace(const CellTable& table,
                                        std::size_t steps,
                                        std::size_t per_step,
                                        std::uint64_t seed);

/// Text writers for the program's inputs.
void write_text(const std::string& path, const std::string& text);
std::string format_address_list(const tass::census::Snapshot& snapshot);
std::string format_hitlist(const std::vector<tass::net::Ipv6Address>& list);
std::string read_text(const std::string& path);

}  // namespace tassbench
