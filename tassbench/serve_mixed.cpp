// serve_mixed: the scanner fleet's view of the planning daemon.
//
// A closed loop: two client connections on two threads each wait for a
// reply before sending the next request, against an in-process
// serve::Server with 2 shards on loopback, all on two CPUs. Of every 16
// requests, 10 are batched v4 locates and 4 v4 tallies (256 addresses
// each), one is a v6 locate (128) and one a rank of the top 16; client 0
// also sends the phi = 0.95 plan, with its large reply, every two
// seconds. Three in four requests are fast lookups, so the median sits
// well inside their mode and the slow tallies and plans shape the tail.
// A control connection reloads the v4 image every 125 ms, alternating
// the plan_cycle image (A) and the image the stream reactor publishes
// after one churn step (B), whose topology fingerprints differ.
//
// The large-reply op is kReduce (phi 0.95, 5% overshoot). The unreduced
// kPlan reply of a 500k-cell table (~170k prefixes, ~1.4 MB) exceeds the
// wire's 1 MiB frame cap: the server sends it, the client rejects it and
// the connection is left mid-frame, so it cannot be part of a workload
// on which no operation fails.
//
// Each request is timed around the round trip only. Verification — a
// direct library call on the image whose fingerprint the reply carries —
// runs after the clock stops and is timed separately (serve.verify_us).
#include <sched.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bgp/reduce.hpp"
#include "bgp/table6.hpp"
#include "common.hpp"
#include "core/attribution.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "scan/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "state/image.hpp"
#include "stream/reactor.hpp"
#include "util/rng.hpp"
#include "world.hpp"

namespace tassbench {

using namespace tass;

namespace {

constexpr int kCpus = 2;
constexpr unsigned kShards = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kBatch6 = 128;
constexpr auto kReloadEvery = std::chrono::milliseconds(125);
constexpr auto kPlanEvery = std::chrono::seconds(2);  // client 0 only
constexpr double kPhi = 0.95;
constexpr double kOvershoot = 0.05;
// Requests in the first second warm caches and page in the images; they
// are checked but not sampled.
constexpr auto kWarmUp = std::chrono::seconds(1);

struct Setup {
  std::string image_a, image_b, image6;
  std::unique_ptr<serve::Server> server;
  std::thread serving;

  ~Setup() {
    if (server) server->stop();
    if (serving.joinable()) serving.join();
  }
};

/// Restricts the calling thread — and every thread it starts afterwards
/// — to the first `count` CPUs it may run on. Returns those CPUs (all
/// allowed CPUs, unchanged, when there are fewer than `count`).
std::vector<int> pin_to_cpus(int count) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (static_cast<int>(cpus.size()) < count) CPU_SET(cpu, &pinned);
    cpus.push_back(cpu);
  }
  if (static_cast<int>(cpus.size()) <= count ||
      sched_setaffinity(0, sizeof pinned, &pinned) != 0) {
    return cpus;
  }
  cpus.resize(static_cast<std::size_t>(count));
  return cpus;
}

/// Pins the calling thread to one CPU.
void pin_thread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

/// Writes image A (the plan_cycle image), image B (A after one churn
/// step, as the stream reactor publishes it) and the v6 image, then
/// starts the server on A.
std::unique_ptr<Setup> make_setup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  const std::string& dir = options.workdir;
  setup->image_a = dir + "/serve-a.tsim";
  setup->image_b = dir + "/serve-b.tsim";
  setup->image6 = dir + "/serve6.tsim";

  const V4World world = make_v4_world(options.sizes, options.seed, false);
  const bgp::PrefixPartition& partition = world.topology->m_partition;
  {
    core::AttributionConfig config;
    config.threads = 1;
    const auto attribution =
        core::attribute(world.month0->addresses(), partition, config);
    state::save_image(setup->image_a, partition,
                      core::rank_by_density(attribution.counts, partition,
                                            core::PrefixMode::kMore));
  }
  {
    CellTable table = make_cell_table(world);
    const auto trace = make_churn_trace(table, 1, options.sizes.churn_per_step,
                                        options.seed);
    const scan::SnapshotOracle oracle(*world.month0);
    const scan::ScanEngine engine;
    stream::StreamReactor reactor(std::move(table.cells),
                                  std::move(table.counts));
    reactor.set_rescanner(&oracle, &engine);
    std::vector<std::byte> image;
    reactor.set_publisher(
        [&](stream::PublishedPlan plan) { image = std::move(plan.image); });
    reactor.feed(trace.front().wire);
    reactor.flush();
    write_text(setup->image_b,
               std::string(reinterpret_cast<const char*>(image.data()),
                           image.size()));
  }
  {
    const V6World world6 = make_v6_world(options.sizes, options.seed);
    const auto partition6 =
        bgp::RoutingTable6::from_pfx2as(world6.records).m_partition();
    std::vector<std::uint32_t> counts(partition6.size(), 0);
    std::uint64_t attributed = 0, unattributed = 0;
    partition6.tally_cells(std::span<const net::Ipv6Address>(world6.hitlist),
                           counts, attributed, unattributed);
    state::save_image(
        setup->image6, partition6,
        core::rank_by_density(counts, partition6, core::PrefixMode::kMore));
  }

  serve::ServerOptions server_options;
  server_options.v4_image_path = setup->image_a;
  server_options.v6_image_path = setup->image6;
  server_options.threads = kShards;
  setup->server = std::make_unique<serve::Server>(std::move(server_options));
  serve::Server* server = setup->server.get();
  setup->serving = std::thread([server] { server->run(); });
  return setup;
}

/// The direct-library oracles the replies are checked against.
struct Oracles {
  state::StateImage a, b;
  state::StateImage6 v6;
  std::mutex plan_mutex;
  std::map<std::uint64_t, bgp::ReduceResult> plans;  // by fingerprint

  const state::StateImage* v4(std::uint64_t fingerprint) const {
    if (fingerprint == a.info().fingerprint) return &a;
    if (fingerprint == b.info().fingerprint) return &b;
    return nullptr;
  }
  /// The phi = 0.95, 5%-reduced plan of an image, computed once.
  const bgp::ReduceResult& plan(const state::StateImage& image) {
    std::lock_guard lock(plan_mutex);
    auto it = plans.find(image.info().fingerprint);
    if (it == plans.end()) {
      core::SelectionParams selection;
      selection.phi = kPhi;
      const auto selected = core::select_by_density(image.ranking(), selection);
      bgp::ReduceParams params;
      params.max_overshoot = kOvershoot;
      it = plans
               .emplace(image.info().fingerprint,
                        bgp::reduce(std::span<const net::Prefix>(
                                        selected.prefixes),
                                    params))
               .first;
    }
    return it->second;
  }
};

/// Reload watch: the control thread arms it with the fingerprint it
/// just requested; the first client reply carrying that fingerprint
/// records its receive time.
struct ReloadWatch {
  std::atomic<int> state{0};  // 0 idle, 1 armed, 2 claimed, 3 landed
  std::atomic<std::uint64_t> target{0};
  Clock::time_point landed_at;

  void observe(std::uint64_t fingerprint, Clock::time_point received) {
    if (state.load(std::memory_order_acquire) != 1 ||
        fingerprint != target.load(std::memory_order_relaxed)) {
      return;
    }
    int armed = 1;
    if (state.compare_exchange_strong(armed, 2, std::memory_order_acq_rel)) {
      landed_at = received;
      state.store(3, std::memory_order_release);
    }
  }
};

/// What one client thread measured.
struct ClientLog {
  std::vector<double> all_us, locate_us, tally_us, locate6_us, rank_us,
      plan_us, verify_us, locate_ns_per_addr, tally_ns_per_addr;
  std::uint64_t requests = 0, addresses = 0;
  Report checks;  // this thread's checked operations
  std::vector<Tracer::Record> spans;
};

/// One client connection's closed loop. Requests before `measured_from`
/// warm the caches and are checked but not sampled.
void client_loop(std::size_t id, serve::Client client, std::uint64_t seed,
                 Clock::time_point measured_from, Clock::time_point deadline,
                 std::size_t min_requests, bool trace, Oracles& oracles,
                 ReloadWatch& watch, ClientLog& log) {
  Tracer tracer(trace, measured_from);
  try {
    util::Rng rng(util::mix64(seed, 100 + id));
    std::vector<std::uint32_t> addresses(kBatch), cells(kBatch);
    std::vector<net::Ipv6Address> addresses6(kBatch6);
    std::vector<std::uint32_t> cells6(kBatch6);
    // v6 queries land in the announced space of the served table.
    const auto& v6_partition = oracles.v6.partition();
    std::map<std::uint64_t, std::vector<std::uint32_t>> tally_scratch;
    auto next_plan = measured_from;
    bool measuring = false;
    // Records one round trip in the op's series and the all-ops series.
    const auto sample = [&](std::vector<double>& series,
                            Clock::time_point start, Clock::time_point end) {
      if (!measuring) return;
      const double us = seconds_between(start, end) * 1e6;
      series.push_back(us);
      log.all_us.push_back(us);
    };

    for (std::uint64_t i = 0;
         log.requests < min_requests || Clock::now() < deadline; ++i) {
      measuring = measuring || Clock::now() >= measured_from;
      const bool plan = id == 0 && Clock::now() >= next_plan;
      const std::uint64_t kind = i % 16;
      if (plan) {
        next_plan = Clock::now() + kPlanEvery;
        serve::ReduceParams params;
        params.phi = kPhi;
        params.max_overshoot = kOvershoot;
        const auto start = Clock::now();
        const auto [header, reply] = tracer.span("serve.plan", i, [&] {
          return client.reduce(net::AddressFamily::kIpv4, params);
        });
        const auto end = Clock::now();
        sample(log.plan_us, start, end);
        watch.observe(header.fingerprint, end);
        const auto* image = oracles.v4(header.fingerprint);
        bool ok = image != nullptr;
        if (ok) {
          const bgp::ReduceResult& want = oracles.plan(*image);
          ok = reply.prefixes.size() == want.prefixes.size() &&
               reply.merges == want.merges &&
               reply.overshoot_addresses == want.overshoot_addresses;
          for (std::size_t k = 0; ok && k < want.prefixes.size(); ++k) {
            ok = reply.prefixes[k].v4() == want.prefixes[k];
          }
        }
        log.checks.check(ok,
                         "serve_mixed: plan reply differs from the library");
      } else if (kind == 7) {
        for (auto& address : addresses6) {
          const auto cell = static_cast<std::uint32_t>(
              rng.bounded(v6_partition.size()));
          const net::Ipv6Prefix prefix = v6_partition.prefix(cell);
          address = net::Ipv6Address(prefix.network().hi() + rng.bounded(64),
                                     rng());
        }
        const auto start = Clock::now();
        const auto [header, got] = tracer.span("serve.locate6", i, [&] {
          return client.locate(
              std::span<const net::Ipv6Address>(addresses6));
        });
        const auto end = Clock::now();
        sample(log.locate6_us, start, end);
        if (measuring) log.addresses += addresses6.size();
        const auto verify_start = Clock::now();
        v6_partition.locate_many(addresses6, cells6);
        log.checks.check(header.fingerprint == oracles.v6.info().fingerprint &&
                  got == cells6,
              "serve_mixed: v6 locate reply differs from the library");
        log.verify_us.push_back(us_since(verify_start));
      } else if (kind == 15) {
        const auto start = Clock::now();
        const auto [header, rows] = tracer.span("serve.rank", i, [&] {
          return client.rank(net::AddressFamily::kIpv4, 16);
        });
        const auto end = Clock::now();
        sample(log.rank_us, start, end);
        watch.observe(header.fingerprint, end);
        const auto verify_start = Clock::now();
        const auto* image = oracles.v4(header.fingerprint);
        bool ok = image != nullptr;
        if (ok) {
          const auto view = image->ranking();
          const std::size_t n = std::min<std::size_t>(16, view.ranked.size());
          ok = rows.size() == n;
          for (std::size_t k = 0; ok && k < n; ++k) {
            ok = rows[k].prefix.v4() == view.ranked[k].prefix &&
                 rows[k].hosts == view.ranked[k].hosts &&
                 rows[k].density == view.ranked[k].density;
          }
        }
        log.checks.check(ok,
                         "serve_mixed: rank reply differs from the library");
        log.verify_us.push_back(us_since(verify_start));
      } else {
        for (auto& address : addresses) {
          address = static_cast<std::uint32_t>(rng());
        }
        const bool tally = kind % 4 == 1;
        if (tally) {
          const auto start = Clock::now();
          const auto [header, reply] = tracer.span("serve.tally", i, [&] {
            return client.tally(std::span<const std::uint32_t>(addresses));
          });
          const auto end = Clock::now();
          sample(log.tally_us, start, end);
          watch.observe(header.fingerprint, end);
          const auto verify_start = Clock::now();
          const auto* image = oracles.v4(header.fingerprint);
          bool ok = image != nullptr;
          if (ok) {
            auto& counts = tally_scratch[header.fingerprint];
            counts.resize(image->partition().size(), 0);
            std::uint64_t attributed = 0, unattributed = 0;
            const auto kernel_start = Clock::now();
            tracer.span("bgp.tally_cells", i, [&] {
              image->partition().tally_cells(
                  std::span<const std::uint32_t>(addresses), counts,
                  attributed, unattributed);
            });
            log.tally_ns_per_addr.push_back(us_since(kernel_start) * 1e3 /
                                            kBatch);
            ok = reply.attributed == attributed &&
                 reply.unattributed == unattributed;
            std::uint64_t listed = 0;
            for (const auto& [cell, count] : reply.cells) {
              ok = ok && cell < counts.size() && counts[cell] == count;
              listed += count;
            }
            ok = ok && listed == attributed;
            image->partition().locate_many(addresses, cells);
            for (const std::uint32_t cell : cells) {
              if (cell < counts.size()) counts[cell] = 0;
            }
          }
          log.checks.check(ok,
                         "serve_mixed: tally reply differs from the library");
          log.verify_us.push_back(us_since(verify_start));
        } else {
          const auto start = Clock::now();
          const auto [header, got] = tracer.span("serve.locate", i, [&] {
            return client.locate(std::span<const std::uint32_t>(addresses));
          });
          const auto end = Clock::now();
          sample(log.locate_us, start, end);
          watch.observe(header.fingerprint, end);
          const auto verify_start = Clock::now();
          const auto* image = oracles.v4(header.fingerprint);
          bool ok = image != nullptr;
          if (ok) {
            const auto kernel_start = Clock::now();
            tracer.span("trie.locate_many", i, [&] {
              image->partition().locate_many(addresses, cells);
            });
            log.locate_ns_per_addr.push_back(us_since(kernel_start) * 1e3 /
                                             kBatch);
            ok = got == cells;
          }
          log.checks.check(ok,
                         "serve_mixed: locate reply differs from the library");
          log.verify_us.push_back(us_since(verify_start));
        }
        if (measuring) log.addresses += kBatch;
      }
      if (measuring) ++log.requests;
      if (log.checks.failed != 0) break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "client %zu: %s\n", id, e.what());
    log.checks.check(false, "serve_mixed: a client request threw");
  }
  log.spans = tracer.records();
}

}  // namespace

void run_serve_mixed(const Options& options, Report& report) {
  // The workload runs on two CPUs, one client thread pinned to each. On
  // a VM, a wakeup that crosses CPUs waits for the hypervisor to run an
  // idle vCPU: on 4 unpinned vCPUs that wait doubled the round trip and
  // varied up to 2x between runs, swamping the serving path. Here the
  // scheduler pulls each shard to the CPU of the client that wakes it,
  // so a round trip mostly costs context switches, not vCPU wakeups.
  const std::vector<int> cpus = pin_to_cpus(kCpus);
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (std::size_t i = 0; i < options.sizes.setup_repeats; ++i) {
    setup.reset();
    const auto start = Clock::now();
    setup = make_setup(options);
    setup_seconds.push_back(seconds_between(start, Clock::now()));
    std::fprintf(stderr, "# serve_mixed setup %zu: %.3f s\n", i,
                 setup_seconds.back());
  }
  flush_setup_writes();
  std::fprintf(stdout,
               "# serve_mixed config: cpus=%zu server threads=%u clients=%zu "
               "batch=%zu batch6=%zu reload_every_ms=%lld "
               "plan_every_s=%lld\n",
               cpus.size(), kShards, kClients, kBatch, kBatch6,
               static_cast<long long>(kReloadEvery.count()),
               static_cast<long long>(kPlanEvery.count()));

  Oracles oracles{state::StateImage::load(setup->image_a),
                  state::StateImage::load(setup->image_b),
                  state::StateImage6::load(setup->image6),
                  {},
                  {}};
  const std::uint64_t fp_a = oracles.a.info().fingerprint;
  const std::uint64_t fp_b = oracles.b.info().fingerprint;
  report.check(fp_a != fp_b, "serve_mixed: images A and B share a fingerprint");

  // Connect sequentially: the server deals accepted connections to its
  // shards round-robin, so each client gets a shard of its own and the
  // control connection shares shard 0.
  std::vector<serve::Client> connections;
  for (std::size_t c = 0; c < kClients; ++c) {
    connections.emplace_back("127.0.0.1", setup->server->port());
  }
  serve::Client control("127.0.0.1", setup->server->port());

  ReloadWatch watch;
  std::vector<ClientLog> logs(kClients);
  const auto load_start = Clock::now() + kWarmUp;
  const auto deadline =
      load_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(
        [&, c, client = std::move(connections[c])]() mutable {
          if (!cpus.empty()) pin_thread(cpus[c % cpus.size()]);
          client_loop(c, std::move(client), options.seed, load_start,
                      deadline, options.sizes.min_requests / kClients,
                      options.trace, oracles, watch, logs[c]);
        });
  }

  // Control connection: alternate B and A at a fixed cadence; each
  // reload's latency ends at the first client reply under the new
  // fingerprint.
  std::vector<double> reload_ms;
  try {
    auto next = load_start;
    for (std::size_t r = 0;; ++r) {
      next += kReloadEvery;
      std::this_thread::sleep_until(next);
      if (Clock::now() + std::chrono::milliseconds(200) >= deadline) break;
      const bool to_b = r % 2 == 0;
      watch.target.store(to_b ? fp_b : fp_a, std::memory_order_relaxed);
      const auto sent = Clock::now();
      watch.state.store(1, std::memory_order_release);
      control.reload(net::AddressFamily::kIpv4,
                     to_b ? setup->image_b : setup->image_a);
      while (watch.state.load(std::memory_order_acquire) != 3 &&
             seconds_between(sent, Clock::now()) < 10.0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const bool landed = watch.state.load(std::memory_order_acquire) == 3;
      report.check(landed, "serve_mixed: a reload never reached a reply");
      if (!landed) break;
      reload_ms.push_back(seconds_between(sent, watch.landed_at) * 1e3);
      watch.state.store(0, std::memory_order_release);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "control: %s\n", e.what());
    report.check(false, "serve_mixed: control connection failed");
  }
  for (std::thread& client : clients) client.join();
  const double load_seconds = seconds_between(load_start, Clock::now());
  const serve::StatsReply stats = setup->server->stats();
  report.check(setup->server->reload_failures() == 0,
               "serve_mixed: the server failed a reload");

  ClientLog all;
  std::vector<Tracer::Record> spans;
  LayerTotals layers;
  double traced_ms = 0.0;  // each client thread's traced wall time
  for (ClientLog& log : logs) {
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.all_us, log.all_us);
    append(all.locate_us, log.locate_us);
    append(all.tally_us, log.tally_us);
    append(all.locate6_us, log.locate6_us);
    append(all.rank_us, log.rank_us);
    append(all.plan_us, log.plan_us);
    append(all.verify_us, log.verify_us);
    append(all.locate_ns_per_addr, log.locate_ns_per_addr);
    append(all.tally_ns_per_addr, log.tally_ns_per_addr);
    all.requests += log.requests;
    all.addresses += log.addresses;
    report.attempted += log.checks.attempted;
    report.failed += log.checks.failed;
    layers.add(log.spans);
    if (!log.spans.empty()) {
      traced_ms +=
          (log.spans.back().end_us - log.spans.front().start_us) / 1e3;
    }
    spans.insert(spans.end(), log.spans.begin(), log.spans.end());
  }
  report.check(!reload_ms.empty() && !all.plan_us.empty(),
               "serve_mixed: no reload or plan completed");

  std::fprintf(stdout,
               "# serve_mixed: %" PRIu64 " requests in %.2f s (%zu latency "
               "samples), %zu reloads, %zu plans\n",
               all.requests, load_seconds, all.all_us.size(),
               reload_ms.size(), all.plan_us.size());
  if (!options.trace) {
    // The workload's operation is one client request.
    report.add("setup_s", median(setup_seconds), "s");
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    report.add("op_p50_ms", quantile(all.all_us, 0.50) / 1e3, "ms");
    report.add("ops_per_s", static_cast<double>(all.requests) / load_seconds,
               "1/s");
    report.detail("serve_qps", static_cast<double>(all.requests) / load_seconds,
                  "req/s");
    report.detail("serve_p50_us", quantile(all.all_us, 0.50), "us");
    report.detail("serve_p99_us", quantile(all.all_us, 0.99), "us");
    return;
  }
  // Every traced request, warm-up included, is one serve span.
  layers.report(static_cast<double>(layers.calls("serve")), traced_ms,
                report);
  report.add("bgp.cells", static_cast<double>(oracles.a.partition().size()),
             "count");
  report.add("state.image_bytes",
             static_cast<double>(oracles.a.info().file_bytes), "B");
  const double locate_p50 = quantile(all.locate_us, 0.50);
  const double locate_ns = median(all.locate_ns_per_addr);
  report.detail("serve.samples", static_cast<double>(all.all_us.size()),
                "count");
  report.detail("serve.locate_p50_us", locate_p50, "us");
  report.detail("serve.locate_p99_us", quantile(all.locate_us, 0.99), "us");
  report.detail("serve.tally_p50_us", quantile(all.tally_us, 0.50), "us");
  report.detail("serve.tally_p99_us", quantile(all.tally_us, 0.99), "us");
  report.detail("serve.locate6_p50_us", quantile(all.locate6_us, 0.50), "us");
  report.detail("serve.rank_p50_us", quantile(all.rank_us, 0.50), "us");
  report.detail("serve.plan_p50_us", quantile(all.plan_us, 0.50), "us");
  report.detail("serve.plans", static_cast<double>(all.plan_us.size()),
                "count");
  report.detail("serve.reload_p50_ms", median(reload_ms), "ms");
  report.detail("serve.reloads", static_cast<double>(reload_ms.size()),
                "count");
  report.detail("serve.swap_install_us",
                static_cast<double>(stats.last_swap_install_us), "us");
  report.detail("serve.swap_drain_us",
                static_cast<double>(stats.last_swap_drain_us), "us");
  report.detail("trie.locate_ns_per_addr", locate_ns, "ns/addr");
  report.detail("bgp.tally_ns_per_addr", median(all.tally_ns_per_addr),
                "ns/addr");
  report.detail("serve.locate_overhead_us",
                locate_p50 - static_cast<double>(kBatch) * locate_ns / 1e3,
                "us");
  report.detail("serve.verify_us", median(all.verify_us), "us");
  report.detail("serve.addresses_per_s",
                static_cast<double>(all.addresses) / load_seconds, "addr/s");
  dump_spans(spans, options.workdir + "/spans-serve_mixed.jsonl");
}

}  // namespace tassbench
