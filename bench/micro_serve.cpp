// Serving micro-benchmark: the resident tass_serve daemon under
// concurrent batched load, with generation swaps racing the request
// stream.
//
// Setup builds two RIB-shaped v4 topologies (A and B, different seeds)
// and one v6 topology of disjoint /48 cells, seals them into state
// images, and starts an in-process Server on loopback. Then
// `--connections` client threads (>= 8 in the smoke run) each drive a
// mixed query stream — batched v4 locate/tally, periodic v6 locate,
// periodic rank/plan — while a control connection performs `--swaps`
// A<->B generation swaps mid-load.
//
// Every response is cross-checked for bit identity against a direct
// library call on the image whose topology fingerprint the response
// header names; any mismatch, unknown fingerprint, or error frame is
// fatal (non-zero exit). The check runs after the request's clock has
// stopped, so latency is the round trip alone, and it costs O(batch),
// so it takes only a small share of each client's closed loop.
// Headline numbers: sustained queries/sec/core, p50/p99 request
// round-trip latency, and p99 client-observed swap latency (reload
// request -> first response served by the new generation).
//
// Plain executable, one JSON object on stdout, notes on stderr.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bgp/deaggregate.hpp"
#include "bgp/partition.hpp"
#include "bgp/pfx2as.hpp"
#include "bgp/rib.hpp"
#include "census/topology.hpp"
#include "core/ranking.hpp"
#include "net/prefix.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "state/image.hpp"
#include "util/rng.hpp"

namespace {

using namespace tass;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Same RIB shape as micro_coldstart: disjoint coverings from the buddy
// allocator, ~55% announcing nested more-specifics.
std::vector<bgp::Pfx2AsRecord> synthesize_table(std::size_t target_cells,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<net::Prefix> space{
      net::Prefix::parse_or_throw("0.0.0.0/2"),
      net::Prefix::parse_or_throw("64.0.0.0/2"),
      net::Prefix::parse_or_throw("128.0.0.0/2"),
      net::Prefix::parse_or_throw("192.0.0.0/2"),
  };
  census::BuddyAllocator allocator(space);
  std::vector<bgp::Pfx2AsRecord> records;
  std::size_t cells = 0;
  while (cells < target_cells) {
    const double roll = rng.uniform();
    int length;
    if (roll < 0.03) {
      length = 12 + static_cast<int>(rng.bounded(4));
    } else if (roll < 0.38) {
      length = 16 + static_cast<int>(rng.bounded(4));
    } else {
      length = 20 + static_cast<int>(rng.bounded(4));
    }
    const auto covering = allocator.allocate(length, rng);
    if (!covering) break;
    const auto origin =
        static_cast<std::uint32_t>(64512 + rng.bounded(1024));
    records.push_back({*covering, {origin}});
    std::vector<net::Prefix> inside;
    if (rng.chance(0.55)) {
      int specifics = 1;
      while (specifics < 6 && rng.chance(0.58)) ++specifics;
      for (int s = 0; s < specifics; ++s) {
        const int extra = 1 + static_cast<int>(rng.bounded(6));
        const int sub_length = std::min(covering->length() + extra, 24);
        if (sub_length <= covering->length()) continue;
        const auto offset = rng.bounded(
            std::uint64_t{1} << (sub_length - covering->length()));
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

std::uint32_t synthetic_count(net::Prefix prefix, std::uint64_t seed) {
  const std::uint64_t h = util::mix64(
      seed, (static_cast<std::uint64_t>(prefix.network().value()) << 6) |
                static_cast<std::uint64_t>(prefix.length()));
  if ((h & 7u) < 3u) return 0;
  return static_cast<std::uint32_t>(1 + (h >> 3) % 500);
}

std::string save_v4_image(const std::string& path, std::size_t cells,
                          std::uint64_t seed) {
  const auto records = synthesize_table(cells, seed);
  const bgp::PrefixPartition partition =
      bgp::RoutingTable::from_pfx2as(records).m_partition();
  std::vector<std::uint32_t> counts(partition.size());
  for (std::size_t i = 0; i < partition.size(); ++i) {
    counts[i] = synthetic_count(partition.prefix(i), seed);
  }
  state::save_image(
      path, partition,
      core::rank_by_density(counts, partition, core::PrefixMode::kMore));
  return path;
}

std::string save_v6_image(const std::string& path, std::size_t cells,
                          std::uint64_t seed) {
  // Disjoint /48 cells under 2001::/16 (partitions need a disjoint
  // tiling, unlike the overlap-heavy micro_lpm6 tables).
  std::vector<net::Ipv6Prefix> prefixes;
  for (std::size_t i = 0; i < cells; ++i) {
    prefixes.emplace_back(
        net::Ipv6Address(
            0x2001000000000000ULL | (static_cast<std::uint64_t>(i) << 16),
            0),
        48);
  }
  bgp::PrefixPartition6 partition(std::move(prefixes));
  std::vector<std::uint32_t> counts(partition.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::uint32_t>(
        util::mix64(seed, i) % 400);
  }
  state::save_image(
      path, partition,
      core::rank_by_density(counts, partition, core::PrefixMode::kMore));
  return path;
}

double percentile(std::vector<double>& sorted_inplace, double p) {
  if (sorted_inplace.empty()) return 0.0;
  std::sort(sorted_inplace.begin(), sorted_inplace.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_inplace.size() - 1));
  return sorted_inplace[rank];
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t prefix_count = 60'000;
  std::size_t prefix6_count = 0;  // 0 -> prefixes/8
  std::size_t connections = 8;
  std::size_t min_requests = 400;  // per connection
  std::size_t batch = 256;
  std::size_t swap_count = 8;
  unsigned threads = 4;
  std::uint64_t seed = 2016;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for '%s'\n", argv[i]);
      return 2;
    }
    char* end = nullptr;
    const std::uint64_t value = std::strtoull(argv[i + 1], &end, 10);
    if (end == argv[i + 1] || *end != '\0') {
      std::fprintf(stderr, "not a number: '%s'\n", argv[i + 1]);
      return 2;
    }
    if (std::strcmp(argv[i], "--prefixes") == 0) {
      prefix_count = value;
    } else if (std::strcmp(argv[i], "--prefixes6") == 0) {
      prefix6_count = value;
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      connections = value;
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      min_requests = value;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch = value;
    } else if (std::strcmp(argv[i], "--swaps") == 0) {
      swap_count = value;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = static_cast<unsigned>(value);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = value;
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'\nusage: micro_serve [--prefixes N] "
                   "[--prefixes6 M] [--connections C] [--requests R] "
                   "[--batch B] [--swaps S] [--threads T] [--seed S]\n",
                   argv[i]);
      return 2;
    }
  }
  if (connections == 0) connections = 1;
  if (batch == 0) batch = 1;
  if (threads == 0) threads = 1;
  if (prefix6_count == 0) prefix6_count = std::max<std::size_t>(64, prefix_count / 8);

  const std::string dir = std::getenv("TMPDIR") ? std::getenv("TMPDIR")
                                                : std::string("/tmp");
  const std::string tag = std::to_string(static_cast<long>(::getpid()));
  const std::string path_a = dir + "/serve_bench_a." + tag + ".tsim";
  const std::string path_b = dir + "/serve_bench_b." + tag + ".tsim";
  const std::string path_6 = dir + "/serve_bench_6." + tag + ".tsi6";
  save_v4_image(path_a, prefix_count, seed);
  save_v4_image(path_b, prefix_count, seed + 1);
  save_v6_image(path_6, prefix6_count, seed + 2);

  // The bit-identity oracles: direct library views of the same images.
  const state::StateImage direct_a = state::StateImage::load(path_a);
  const state::StateImage direct_b = state::StateImage::load(path_b);
  const state::StateImage6 direct_6 = state::StateImage6::load(path_6);
  const std::uint64_t fp_a = direct_a.info().fingerprint;
  const std::uint64_t fp_b = direct_b.info().fingerprint;
  const std::uint64_t fp_6 = direct_6.info().fingerprint;
  if (fp_a == fp_b) {
    std::fprintf(stderr, "seed degeneracy: fp_a == fp_b\n");
    return 1;
  }
  const auto v4_oracle =
      [&](std::uint64_t fingerprint) -> const state::StateImage* {
    if (fingerprint == fp_a) return &direct_a;
    if (fingerprint == fp_b) return &direct_b;
    return nullptr;
  };

  serve::ServerOptions options;
  options.v4_image_path = path_a;
  options.v6_image_path = path_6;
  options.threads = threads;
  serve::Server server(std::move(options));
  std::thread serving([&server] { server.run(); });

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> total_requests{0};
  std::atomic<std::uint64_t> total_addresses{0};
  std::atomic<int> failures{0};
  std::mutex latency_mutex;
  std::vector<double> latencies_us;

  std::vector<std::thread> clients;
  clients.reserve(connections);
  const auto load_start = Clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      try {
        serve::Client client("127.0.0.1", server.port());
        std::vector<double> local_us;
        local_us.reserve(min_requests + 64);
        util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)));
        std::vector<std::uint32_t> addresses(batch);
        std::vector<net::Ipv6Address> addresses6(batch / 2 + 1);
        std::vector<std::uint32_t> cells_scratch(batch);
        // Per-fingerprint tally oracle counts, all-zero between checks.
        std::map<std::uint64_t, std::vector<std::uint32_t>> tally_counts;
        const auto stop_clock = [&](Clock::time_point start) {
          local_us.push_back(us_since(start));
        };
        for (std::uint64_t iteration = 0;
             iteration < min_requests || !done.load(std::memory_order_acquire);
             ++iteration) {
          const auto kind = iteration % 16;
          const auto start = Clock::now();
          if (kind == 15) {
            // rank: head of the served ranking, checked against oracle.
            const auto [header, rows] =
                client.rank(net::AddressFamily::kIpv4, 16);
            stop_clock(start);
            const state::StateImage* oracle = v4_oracle(header.fingerprint);
            if (oracle == nullptr) {
              failures.fetch_add(1);
              break;
            }
            const auto view = oracle->ranking();
            const std::size_t n =
                std::min<std::size_t>(16, view.ranked.size());
            bool ok = rows.size() == n;
            for (std::size_t i = 0; ok && i < n; ++i) {
              ok = rows[i].prefix.v4() == view.ranked[i].prefix &&
                   rows[i].hosts == view.ranked[i].hosts &&
                   rows[i].density == view.ranked[i].density;
            }
            if (!ok) {
              std::fprintf(stderr, "RANK MISMATCH (conn %zu)\n", c);
              failures.fetch_add(1);
              break;
            }
          } else if (kind == 7) {
            // v6 locate batch.
            for (auto& addr : addresses6) {
              addr = net::Ipv6Address(
                  0x2001000000000000ULL |
                      ((rng.bounded(prefix6_count + 8)) << 16),
                  rng());
            }
            const auto [header, cells] = client.locate(addresses6);
            stop_clock(start);
            if (header.fingerprint != fp_6) {
              failures.fetch_add(1);
              break;
            }
            std::vector<std::uint32_t> want(addresses6.size());
            direct_6.partition().locate_many(addresses6, want);
            if (cells != want) {
              std::fprintf(stderr, "V6 LOCATE MISMATCH (conn %zu)\n", c);
              failures.fetch_add(1);
              break;
            }
            total_addresses.fetch_add(addresses6.size(),
                                      std::memory_order_relaxed);
          } else if (kind % 2 == 1) {
            // v4 tally batch.
            for (auto& addr : addresses) {
              addr = static_cast<std::uint32_t>(rng());
            }
            const auto [header, tally] = client.tally(addresses);
            stop_clock(start);
            const state::StateImage* oracle = v4_oracle(header.fingerprint);
            if (oracle == nullptr) {
              failures.fetch_add(1);
              break;
            }
            // O(batch) check: tally into the all-zero oracle counts,
            // match every listed pair (nonzero, strictly ascending) and
            // their sum against it, then re-zero only the located cells.
            auto& counts = tally_counts[header.fingerprint];
            counts.resize(oracle->partition().size(), 0);
            std::uint64_t attributed = 0;
            std::uint64_t unattributed = 0;
            oracle->partition().tally_cells(std::span(addresses), counts,
                                            attributed, unattributed);
            bool ok = tally.attributed == attributed &&
                      tally.unattributed == unattributed;
            std::uint64_t listed = 0;
            for (std::size_t i = 0; ok && i < tally.cells.size(); ++i) {
              const auto [cell, count] = tally.cells[i];
              ok = cell < counts.size() && count != 0 &&
                   counts[cell] == count &&
                   (i == 0 || tally.cells[i - 1].first < cell);
              listed += count;
            }
            ok = ok && listed == attributed;
            oracle->partition().locate_many(addresses, cells_scratch);
            for (const std::uint32_t cell : cells_scratch) {
              if (cell < counts.size()) counts[cell] = 0;
            }
            if (!ok) {
              std::fprintf(stderr, "TALLY MISMATCH (conn %zu)\n", c);
              failures.fetch_add(1);
              break;
            }
            total_addresses.fetch_add(addresses.size(),
                                      std::memory_order_relaxed);
          } else {
            // v4 locate batch.
            for (auto& addr : addresses) {
              addr = static_cast<std::uint32_t>(rng());
            }
            const auto [header, cells] = client.locate(addresses);
            stop_clock(start);
            const state::StateImage* oracle = v4_oracle(header.fingerprint);
            if (oracle == nullptr) {
              failures.fetch_add(1);
              break;
            }
            std::vector<std::uint32_t> want(addresses.size());
            oracle->partition().locate_many(addresses, want);
            if (cells != want) {
              std::fprintf(stderr, "LOCATE MISMATCH (conn %zu)\n", c);
              failures.fetch_add(1);
              break;
            }
            total_addresses.fetch_add(addresses.size(),
                                      std::memory_order_relaxed);
          }
          total_requests.fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard lock(latency_mutex);
        latencies_us.insert(latencies_us.end(), local_us.begin(),
                            local_us.end());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %zu: %s\n", c, e.what());
        failures.fetch_add(1);
      }
    });
  }

  // Generation swaps racing the load: client-observed latency from the
  // reload request to the first response served by the new generation.
  std::vector<double> swap_us;
  {
    serve::Client control("127.0.0.1", server.port());
    for (std::size_t swap = 0; swap < swap_count && failures.load() == 0;
         ++swap) {
      const std::string& next = (swap % 2 == 0) ? path_b : path_a;
      const std::uint64_t want_fp = (swap % 2 == 0) ? fp_b : fp_a;
      const auto start = Clock::now();
      control.reload(net::AddressFamily::kIpv4, next);
      for (;;) {
        const auto [header, info] = control.info(net::AddressFamily::kIpv4);
        if (header.fingerprint == want_fp) break;
        if (us_since(start) > 60e6) {
          std::fprintf(stderr, "swap %zu did not land in 60 s\n", swap);
          failures.fetch_add(1);
          break;
        }
      }
      swap_us.push_back(us_since(start));
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  const double load_seconds = us_since(load_start) / 1e6;

  server.stop();
  serving.join();
  const auto stats = server.stats();

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(path_6.c_str());

  if (failures.load() != 0) {
    std::fprintf(stderr, "FAILED: %d cross-check failures\n",
                 failures.load());
    return 1;
  }

  const double qps =
      load_seconds > 0.0
          ? static_cast<double>(total_requests.load()) / load_seconds
          : 0.0;
  const double qps_per_core = qps / static_cast<double>(threads);
  const double p50_us = percentile(latencies_us, 0.50);
  const double p99_us = percentile(latencies_us, 0.99);
  const double swap_p50_us = percentile(swap_us, 0.50);
  const double swap_p99_us = percentile(swap_us, 0.99);

  std::fprintf(stderr,
               "# %zu conns x >= %zu reqs (batch %zu) over %u shards: "
               "%.0f q/s (%.0f q/s/core), p50 %.0f us, p99 %.0f us; %zu "
               "swaps p99 %.0f us (install %" PRIu64 " us, drain %" PRIu64
               " us); %" PRIu64 " addresses batched\n",
               connections, min_requests, batch, threads, qps, qps_per_core,
               p50_us, p99_us, swap_us.size(), swap_p99_us,
               stats.last_swap_install_us, stats.last_swap_drain_us,
               total_addresses.load());

  std::printf(
      "{\"bench\":\"micro_serve\",\"prefixes\":%zu,\"prefixes6\":%zu,"
      "\"connections\":%zu,\"requests\":%" PRIu64 ",\"batch\":%zu,"
      "\"threads\":%u,\"seed\":%" PRIu64 ",\"swaps\":%zu,"
      "\"batched_addresses\":%" PRIu64 ",\"qps\":%.1f,"
      "\"qps_per_core\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,"
      "\"swap_p50_us\":%.1f,\"swap_p99_us\":%.1f,"
      "\"last_swap_install_us\":%" PRIu64 ",\"last_swap_drain_us\":%" PRIu64
      "}\n",
      prefix_count, prefix6_count, connections, total_requests.load(),
      batch, threads, seed, swap_us.size(), total_addresses.load(), qps,
      qps_per_core, p50_us, p99_us, swap_p50_us, swap_p99_us,
      stats.last_swap_install_us, stats.last_swap_drain_us);
  return 0;
}
