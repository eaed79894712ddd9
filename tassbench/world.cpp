#include "world.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "bgp/deaggregate.hpp"
#include "bgp/rib.hpp"
#include "bgp/rib_delta.hpp"
#include "census/churn.hpp"
#include "census/population.hpp"
#include "census/protocol.hpp"
#include "net/special_use.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tassbench {

using namespace tass;

namespace {

constexpr census::Protocol kProtocol = census::Protocol::kHttp;

// The micro_coldstart RIB shape, with slightly longer coverings so 500k
// cells fit the scannable space: disjoint coverings (1.5% /12-/15, 30%
// /16-/19, the rest /20-/23), ~55% of them announcing 1+Geom(0.58)
// more-specifics up to /24, drawn until the m-partition reaches
// `target_cells` (deaggregating one covering is independent of the rest
// of the table, so the running count is exact).
std::vector<bgp::Pfx2AsRecord> synthesize_v4_table(std::size_t target_cells,
                                                   util::Rng& rng) {
  census::BuddyAllocator allocator(net::scannable_space().to_prefixes());
  std::vector<bgp::Pfx2AsRecord> records;
  std::size_t cells = 0;
  while (cells < target_cells) {
    const double roll = rng.uniform();
    int length;
    if (roll < 0.015) {
      length = 12 + static_cast<int>(rng.bounded(4));
    } else if (roll < 0.315) {
      length = 16 + static_cast<int>(rng.bounded(4));
    } else {
      length = 20 + static_cast<int>(rng.bounded(4));
    }
    const auto covering = allocator.allocate(length, rng);
    if (!covering) {
      throw Error("v4 world: address space exhausted at " +
                  std::to_string(cells) + " cells");
    }
    const auto origin = static_cast<std::uint32_t>(64512 + rng.bounded(1024));
    records.push_back({*covering, {origin}});
    std::vector<net::Prefix> inside;
    if (rng.chance(0.55)) {
      int specifics = 1;
      while (specifics < 6 && rng.chance(0.58)) ++specifics;
      for (int s = 0; s < specifics; ++s) {
        const int extra = 1 + static_cast<int>(rng.bounded(6));
        const int sub_length = std::min(covering->length() + extra, 24);
        if (sub_length <= covering->length()) continue;
        const auto offset =
            rng.bounded(std::uint64_t{1} << (sub_length - covering->length()));
        const net::Prefix specific(
            net::Ipv4Address(covering->network().value() +
                             static_cast<std::uint32_t>(
                                 offset << (32 - sub_length))),
            sub_length);
        inside.push_back(specific);
        records.push_back({specific, {origin}});
      }
    }
    cells += bgp::deaggregate(*covering, inside).size();
  }
  return records;
}

}  // namespace

V4World make_v4_world(const Sizes& sizes, std::uint64_t seed,
                      bool with_month1) {
  util::Rng rng(util::mix64(seed, 4));
  V4World world;
  world.records = synthesize_v4_table(sizes.v4_cells, rng);
  world.topology = census::topology_from_table(
      bgp::RoutingTable::from_pfx2as(world.records), util::mix64(seed, 5));
  const census::ProtocolProfile& profile = census::protocol_profile(kProtocol);
  census::PopulationParams params;
  params.host_scale = sizes.host_scale;
  params.seed = util::mix64(seed, 6);
  world.month0 = std::make_unique<census::Snapshot>(
      census::generate_population(world.topology, profile, params));
  if (with_month1) {
    world.month1 = std::make_unique<census::Snapshot>(
        census::advance_month(*world.month0, profile, util::mix64(seed, 7)));
  }
  return world;
}

V6World make_v6_world(const Sizes& sizes, std::uint64_t seed) {
  util::Rng rng(util::mix64(seed, 8));
  V6World world;
  // Coverings are laid out left to right from 2400::/12 with random
  // gaps, so they are disjoint by construction; nested more-specifics
  // sit at random aligned offsets inside them.
  std::uint64_t cursor = 0x2400000000000000ULL;
  std::vector<std::uint64_t> route_hi;    // network hi of each route
  std::vector<int> route_length;
  while (world.records.size() < sizes.v6_routes) {
    const double roll = rng.uniform();
    int length;
    if (roll < 0.06) {
      length = 29;
    } else if (roll < 0.46) {
      length = 32;
    } else if (roll < 0.62) {
      length = 36 + static_cast<int>(rng.bounded(9));
    } else {
      length = 48;
    }
    const std::uint64_t block = std::uint64_t{1} << (64 - length);
    cursor = (cursor + block - 1) & ~(block - 1);
    const std::uint64_t network = cursor;
    cursor += block * (1 + rng.bounded(4));
    const auto origin = static_cast<std::uint32_t>(131072 + rng.bounded(4096));
    world.records.push_back(
        {net::Ipv6Prefix(net::Ipv6Address(network, 0), length), {origin}});
    route_hi.push_back(network);
    route_length.push_back(length);
    if (length < 48 && rng.chance(0.55)) {
      int specifics = 1;
      while (specifics < 8 && rng.chance(0.6)) ++specifics;
      for (int s = 0; s < specifics; ++s) {
        const int sub_length =
            std::min(length + 4 + static_cast<int>(rng.bounded(13)), 56);
        const std::uint64_t offset =
            rng.bounded(std::uint64_t{1} << (sub_length - length));
        const std::uint64_t sub = network | (offset << (64 - sub_length));
        world.records.push_back(
            {net::Ipv6Prefix(net::Ipv6Address(sub, 0), sub_length),
             {origin}});
        route_hi.push_back(sub);
        route_length.push_back(sub_length);
      }
    }
  }
  // Hitlist: each address picks a route (skewed towards a hot quarter),
  // one of a few active /64s near the route's start, and a low
  // interface identifier — the ::1-style addresses hitlists are full of.
  world.hitlist.reserve(sizes.v6_hitlist);
  const std::size_t hot = std::max<std::size_t>(1, route_hi.size() / 4);
  while (world.hitlist.size() < sizes.v6_hitlist) {
    const std::size_t route = rng.chance(0.7)
                                  ? rng.bounded(hot)
                                  : rng.bounded(route_hi.size());
    const int length = route_length[route];
    const std::uint64_t span =
        length >= 64 ? 1 : std::uint64_t{1} << (64 - length);
    const std::uint64_t subnet = rng.bounded(std::min<std::uint64_t>(span, 64));
    world.hitlist.emplace_back(route_hi[route] + subnet,
                               1 + rng.bounded(4096));
  }
  return world;
}

CellTable make_cell_table(const V4World& world) {
  const census::Topology& topo = *world.topology;
  CellTable table;
  table.cells.reserve(topo.m_partition.size());
  table.counts = world.month0->counts_per_cell();
  for (std::size_t i = 0; i < topo.m_partition.size(); ++i) {
    table.cells.push_back(
        {topo.m_partition.prefix(i), {topo.l_origin_as[topo.cell_to_l[i]]}});
  }
  // The reactor wants its table ascending by prefix.
  std::vector<std::size_t> order(table.cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return table.cells[a].prefix < table.cells[b].prefix;
  });
  CellTable sorted;
  sorted.cells.reserve(order.size());
  sorted.counts.reserve(order.size());
  for (const std::size_t i : order) {
    sorted.cells.push_back(std::move(table.cells[i]));
    sorted.counts.push_back(table.counts[i]);
  }
  return sorted;
}

std::vector<ChurnStep> make_churn_trace(const CellTable& table,
                                        std::size_t steps,
                                        std::size_t per_step,
                                        std::uint64_t seed) {
  const auto key = [](net::Prefix p) {
    return (static_cast<std::uint64_t>(p.network().value()) << 6) |
           static_cast<std::uint64_t>(p.length());
  };
  util::Rng rng(util::mix64(seed, 9));
  std::vector<net::Prefix> live;
  live.reserve(table.cells.size() + steps * per_step);
  std::unordered_map<std::uint64_t, std::size_t> slot;
  slot.reserve(live.capacity());
  for (const auto& record : table.cells) {
    slot.emplace(key(record.prefix), live.size());
    live.push_back(record.prefix);
  }
  const auto remove = [&](net::Prefix p) {
    const auto it = slot.find(key(p));
    const std::size_t at = it->second;
    slot.erase(it);
    if (at + 1 != live.size()) {
      live[at] = live.back();
      slot[key(live[at])] = at;
    }
    live.pop_back();
  };
  const auto add = [&](net::Prefix p) {
    slot.emplace(key(p), live.size());
    live.push_back(p);
  };

  std::vector<ChurnStep> trace;
  trace.reserve(steps);
  for (std::size_t step = 0; step < steps; ++step) {
    bgp::RibDelta delta;
    std::unordered_set<std::uint64_t> used;
    for (std::size_t k = 0; k < per_step; ++k) {
      const net::Prefix victim = live[rng.bounded(live.size())];
      if (!used.insert(key(victim)).second) continue;
      const auto origin = static_cast<std::uint32_t>(65000 + rng.bounded(512));
      if (victim.length() < 24 && rng.chance(0.45)) {
        delta.withdraw.push_back(victim);
        remove(victim);
        for (const net::Prefix half :
             {victim.lower_half(), victim.upper_half()}) {
          delta.announce.push_back({half, {origin}});
          used.insert(key(half));
          add(half);
        }
      } else {
        delta.announce.push_back({victim, {origin}});
      }
    }
    ChurnStep out;
    out.updates = delta.withdraw.size() + delta.announce.size();
    out.wire = bgp::encode_mrt_updates(
        delta, static_cast<std::uint32_t>(1441584000 + step));
    trace.push_back(std::move(out));
  }
  return trace;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw Error("cannot write " + path);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string format_address_list(const census::Snapshot& snapshot) {
  std::string text;
  text.reserve(snapshot.total_hosts() * 16);
  char line[24];
  snapshot.for_each_address([&](net::Ipv4Address address) {
    const std::uint32_t v = address.value();
    const int n = std::snprintf(line, sizeof line, "%u.%u.%u.%u\n", v >> 24,
                                (v >> 16) & 0xff, (v >> 8) & 0xff, v & 0xff);
    text.append(line, static_cast<std::size_t>(n));
  });
  return text;
}

std::string format_hitlist(const std::vector<net::Ipv6Address>& list) {
  std::string text;
  text.reserve(list.size() * 32);
  for (const net::Ipv6Address& address : list) {
    text += address.to_string();
    text += '\n';
  }
  return text;
}

}  // namespace tassbench
