// churn_stream: how quickly a BGP change reaches the served plan.
//
// A stream::StreamReactor is bootstrapped from the plan_cycle
// m-partition (one record per cell, month-0 counts) with a month-0
// rescanner, and fed a synthetic MRT trace of reorigins and
// deaggregation splits. Every published plan is installed into a
// serve::GenerationStore for serving. In the paced replay a reader
// thread attaches to and verifies each generation it sees, off the
// critical path (it copies the generation's shared pointer and releases
// the slot before attaching); in the full-speed replay it audits the
// final generation.
//
// The reactor is driven through its synchronous API (feed + poll) on
// the benchmark's reactor thread, one trace step per feed, so batches
// align with steps and every published fingerprint can be checked
// against the per-step sequence precomputed in setup by another
// synchronous reactor. (The asynchronous ingest thread cuts batches at
// arbitrary update boundaries, and slot reuse makes the fingerprint of
// such a batch depend on where it was cut.)
//
//   full-speed replay: all steps are in memory at the start; the time
//     from start to drained gives churn_updates_per_s.
//   paced replay: an open-loop generator thread releases one step every
//     `pace` seconds, below capacity; each step's latency runs from its
//     due time to the first published plan whose fingerprint equals its
//     precomputed fingerprint or a later step's.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bgp/partition.hpp"
#include "common.hpp"
#include "scan/engine.hpp"
#include "serve/generation.hpp"
#include "state/image.hpp"
#include "stream/reactor.hpp"
#include "world.hpp"

namespace tassbench {

using namespace tass;

namespace {

// The paced replay's step interval: well above the full-size batch time
// (apply + rescan + rerank + seal of a 500k-cell plan, 50-65 ms on a
// 4-core x86-64 VM), so the reactor keeps up and latency reflects
// batching, not backlog.
constexpr double kPaceSeconds = 0.1;

struct Plan {
  std::uint64_t fingerprint = 0;
  std::vector<std::byte> image;
};
using PlanStore = serve::GenerationStore<std::shared_ptr<const Plan>>;

struct Setup {
  CellTable table;
  std::unique_ptr<V4World> world;
  std::unique_ptr<scan::SnapshotOracle> oracle;
  std::unique_ptr<scan::ScanEngine> engine;
  std::vector<std::vector<std::byte>> steps;  // wire of each step
  std::vector<std::uint64_t> step_updates;    // updates in each step
  std::uint64_t updates = 0;
  std::vector<std::uint64_t> step_fingerprint;      // after each step
  std::map<std::uint64_t, std::size_t> last_step_of;  // fingerprint -> step
  std::unique_ptr<stream::StreamReactor> fast, paced;
};

std::unique_ptr<stream::StreamReactor> bootstrap(const Setup& setup) {
  auto reactor =
      std::make_unique<stream::StreamReactor>(setup.table.cells,
                                              setup.table.counts);
  reactor->set_rescanner(setup.oracle.get(), setup.engine.get());
  return reactor;
}

std::unique_ptr<Setup> make_setup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  setup->world = std::make_unique<V4World>(
      make_v4_world(options.sizes, options.seed, false));
  setup->table = make_cell_table(*setup->world);
  // Enough steps for the paced replay to last --seconds, and at least
  // churn_steps so p95 has ten samples beyond it.
  const std::size_t steps = std::max(
      options.sizes.churn_steps,
      static_cast<std::size_t>(std::ceil(options.seconds / kPaceSeconds)));
  const auto trace = make_churn_trace(setup->table, steps,
                                      options.sizes.churn_per_step,
                                      options.seed);

  // The MRT wire is the program's input: written out, read back, and
  // sliced at the step boundaries the generator recorded.
  std::string wire;
  for (const ChurnStep& step : trace) {
    wire.append(reinterpret_cast<const char*>(step.wire.data()),
                step.wire.size());
    setup->updates += step.updates;
  }
  const std::string path = options.workdir + "/updates.mrt";
  write_text(path, wire);
  wire = read_text(path);
  std::size_t offset = 0;
  for (const ChurnStep& step : trace) {
    const auto* begin =
        reinterpret_cast<const std::byte*>(wire.data()) + offset;
    setup->steps.emplace_back(begin, begin + step.wire.size());
    setup->step_updates.push_back(step.updates);
    offset += step.wire.size();
  }

  setup->oracle = std::make_unique<scan::SnapshotOracle>(*setup->world->month0);
  scan::EngineConfig engine_config;
  engine_config.threads = 1;
  setup->engine = std::make_unique<scan::ScanEngine>(engine_config);

  // Per-step fingerprints through a synchronous reactor. The fingerprint
  // covers the partition's live prefixes only, which rescans do not
  // touch, so this reactor runs without a rescanner, and without a
  // publisher it skips sealing.
  {
    stream::StreamReactor reactor(setup->table.cells, setup->table.counts);
    for (std::size_t k = 0; k < setup->steps.size(); ++k) {
      reactor.feed(setup->steps[k]);
      reactor.flush();
      const std::uint64_t fingerprint =
          bgp::partition_fingerprint(reactor.partition());
      setup->step_fingerprint.push_back(fingerprint);
      setup->last_step_of[fingerprint] = k;
    }
  }
  setup->fast = bootstrap(*setup);
  setup->paced = bootstrap(*setup);
  return setup;
}

/// What one replay measured.
struct Replay {
  double elapsed_s = 0.0;
  std::vector<double> feed_us_per_update, batch_ms, publish_ms, attach_ms,
      latency_ms, late_ms;
  std::vector<Tracer::Record> spans;
  stream::ReactorStats stats;
  std::uint64_t published = 0, verified = 0, image_bytes = 0;
};

/// Runs one replay through `reactor`. `pace` <= 0 is the full-speed
/// replay; otherwise a generator thread releases step k at k * pace.
Replay run_replay(const Setup& setup, stream::StreamReactor& reactor,
                  double pace, bool trace, Report& report) {
  Replay replay;
  const std::size_t n = setup.steps.size();
  Tracer tracer(trace);

  PlanStore store(/*reader_slots=*/1);
  std::vector<Clock::time_point> due(n);
  std::size_t covered = 0;  // steps [0, covered) have their plan
  reactor.set_publisher([&](stream::PublishedPlan published) {
    const auto start = Clock::now();
    tracer.span("stream.publish", published.seq, [&] {
      auto plan = std::make_shared<Plan>();
      plan->fingerprint = published.fingerprint;
      plan->image = std::move(published.image);
      replay.image_bytes = plan->image.size();
      const auto* displaced = store.install(std::move(plan));
      if (displaced != nullptr) store.retire(displaced);
    });
    const auto end = Clock::now();
    replay.publish_ms.push_back(seconds_between(start, end) * 1e3);
    ++replay.published;
    const auto it = setup.last_step_of.find(published.fingerprint);
    report.check(it != setup.last_step_of.end() && it->second + 1 >= covered,
                 "churn_stream: published fingerprint is not in the "
                 "precomputed step sequence");
    if (it == setup.last_step_of.end()) return;
    for (; covered <= it->second && covered < n; ++covered) {
      if (pace > 0.0) {
        replay.latency_ms.push_back(seconds_between(due[covered], end) * 1e3);
      }
    }
  });

  // The reader: attach + deep-verify each generation it observes.
  std::atomic<bool> reader_stop{false};
  std::atomic<std::uint64_t> reader_failures{0};
  std::thread reader([&] {
    std::uint64_t last_seq = 0;
    const auto verify_current = [&] {
      std::shared_ptr<const Plan> plan;
      {
        const auto ref = store.acquire(0);
        if (!ref || ref.seq() == last_seq) return false;
        last_seq = ref.seq();
        plan = ref.image();
      }
      const auto start = Clock::now();
      try {
        const auto image =
            state::StateImage::attach(plan->image, plan->fingerprint);
        image.verify();
        if (image.info().fingerprint != plan->fingerprint) {
          reader_failures.fetch_add(1);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "reader: %s\n", e.what());
        reader_failures.fetch_add(1);
      }
      replay.attach_ms.push_back(ms_since(start));
      ++replay.verified;
      return true;
    };
    // In the full-speed replay the reader audits only the final
    // generation: attaching alongside would compete with the reactor for
    // memory bandwidth and blur the drain rate.
    while (!reader_stop.load(std::memory_order_acquire)) {
      if (pace <= 0.0 || !verify_current()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    verify_current();
  });

  // Steps reach the reactor thread through `ready`; the generator fills
  // it on schedule (paced) or everything is ready at once (full speed).
  std::mutex ready_mutex;
  std::condition_variable ready_cv;
  std::size_t ready = 0;
  std::thread generator;
  const auto start = Clock::now();
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(pace * k));
  }
  if (pace > 0.0) {
    generator = std::thread([&] {
      for (std::size_t k = 0; k < n; ++k) {
        std::this_thread::sleep_until(due[k]);
        replay.late_ms.push_back(ms_since(due[k]));
        {
          std::lock_guard lock(ready_mutex);
          ready = k + 1;
        }
        ready_cv.notify_one();
      }
    });
  } else {
    ready = n;
  }

  // The threads are joined before a reactor error propagates.
  std::exception_ptr error;
  try {
    for (std::size_t k = 0; k < n; ++k) {
      {
        std::unique_lock lock(ready_mutex);
        ready_cv.wait(lock, [&] { return ready > k; });
      }
      const auto feed_start = Clock::now();
      tracer.span("stream.feed", k, [&] { reactor.feed(setup.steps[k]); });
      replay.feed_us_per_update.push_back(
          us_since(feed_start) / static_cast<double>(setup.step_updates[k]));
      for (;;) {
        const auto poll_start = Clock::now();
        const bool ran =
            tracer.span("stream.poll", k, [&] { return reactor.poll(); });
        if (!ran) break;
        replay.batch_ms.push_back(ms_since(poll_start));
      }
    }
    reactor.finish();
  } catch (...) {
    error = std::current_exception();
  }
  replay.elapsed_s = seconds_between(start, Clock::now());
  if (generator.joinable()) generator.join();
  reader_stop.store(true, std::memory_order_release);
  reader.join();
  if (error) std::rethrow_exception(error);
  replay.stats = reactor.stats();
  replay.spans = tracer.records();

  report.check(replay.verified >= 1,
               "churn_stream: the reader never verified a generation");
  report.check(reader_failures.load() == 0,
               "churn_stream: a published image failed attach/verify");
  report.check(covered == n, "churn_stream: a step never reached a plan");
  report.check(bgp::partition_fingerprint(reactor.partition()) ==
                   setup.step_fingerprint.back(),
               "churn_stream: final partition differs from the precomputed "
               "one");
  report.check(replay.stats.framer.decode_errors == 0 &&
                   replay.stats.framer.resyncs == 0 &&
                   replay.stats.rejected_overlaps == 0 &&
                   replay.stats.queue.dropped == 0,
               "churn_stream: the reactor dropped or rejected updates");
  return replay;
}

}  // namespace

void run_churn_stream(const Options& options, Report& report) {
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (std::size_t i = 0; i < options.sizes.setup_repeats; ++i) {
    setup.reset();
    const auto start = Clock::now();
    setup = make_setup(options);
    setup_seconds.push_back(seconds_between(start, Clock::now()));
    std::fprintf(stderr, "# churn_stream setup %zu: %.3f s\n", i,
                 setup_seconds.back());
  }
  flush_setup_writes();
  std::fprintf(stdout,
               "# churn_stream config: engine threads=1 steps=%zu "
               "per_step=%zu pace_s=%.3f cells=%zu\n",
               setup->steps.size(), options.sizes.churn_per_step,
               kPaceSeconds, setup->table.cells.size());

  const Replay fast =
      run_replay(*setup, *setup->fast, 0.0, options.trace, report);
  const Replay paced =
      run_replay(*setup, *setup->paced, kPaceSeconds, options.trace, report);
  std::fprintf(stdout,
               "# churn_stream: %" PRIu64 " updates, full speed %.3f s "
               "(%" PRIu64 " plans); paced %zu latency samples\n",
               setup->updates, fast.elapsed_s, fast.published,
               paced.latency_ms.size());

  if (!options.trace) {
    // The workload's operation is one churn step: its latency is the
    // paced replay's, its rate the full-speed replay's.
    report.add("setup_s", median(setup_seconds), "s");
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    report.add("op_p50_ms", quantile(paced.latency_ms, 0.50), "ms");
    report.add("ops_per_s",
               static_cast<double>(setup->steps.size()) / fast.elapsed_s,
               "1/s");
    report.detail("churn_updates_per_s",
                  static_cast<double>(setup->updates) / fast.elapsed_s,
                  "upd/s");
    report.detail("churn_plan_p50_ms", quantile(paced.latency_ms, 0.50), "ms");
    return;
  }
  // Both replays are traced, and the reactor thread's replay time is the
  // traced time. A reader's attach + verify, on its own thread, is a
  // state call.
  LayerTotals layers;
  for (const Replay* replay : {&fast, &paced}) {
    layers.add(replay->spans);
    for (const double ms : replay->attach_ms) layers.add_call("state", ms);
  }
  layers.report(static_cast<double>(2 * setup->steps.size()),
                (fast.elapsed_s + paced.elapsed_s) * 1e3, report);
  report.add("bgp.cells", static_cast<double>(setup->table.cells.size()),
             "count");
  report.add("state.image_bytes", static_cast<double>(fast.image_bytes), "B");
  const stream::ReactorStats& s = fast.stats;
  report.detail("stream.latency_samples",
                static_cast<double>(paced.latency_ms.size()), "count");
  report.detail("stream.plan_p95_ms", quantile(paced.latency_ms, 0.95), "ms");
  report.detail("stream.feed_us_per_update", median(fast.feed_us_per_update),
                "us");
  report.detail("stream.batch_p50_ms", median(fast.batch_ms), "ms");
  report.detail("stream.publish_ms", median(fast.publish_ms), "ms");
  report.detail("state.attach_ms", median(paced.attach_ms), "ms");
  report.detail("stream.generator_late_ms", quantile(paced.late_ms, 0.99),
                "ms");
  report.detail("stream.batches", static_cast<double>(s.batches), "count");
  report.detail("stream.updates_per_batch",
                static_cast<double>(s.queue.drained) /
                    static_cast<double>(std::max<std::uint64_t>(1, s.batches)),
                "count");
  report.detail("stream.coalesced", static_cast<double>(s.queue.coalesced),
                "count");
  report.detail("stream.noop_updates", static_cast<double>(s.noop_updates),
                "count");
  report.detail("stream.rejected_overlaps",
                static_cast<double>(s.rejected_overlaps), "count");
  report.detail("stream.rescanned_addresses",
                static_cast<double>(s.rescanned_addresses), "count");
  report.detail("stream.plans_published",
                static_cast<double>(s.plans_published), "count");
  report.detail("stream.framer_resyncs", static_cast<double>(s.framer.resyncs),
                "count");
  report.detail("stream.image_bytes", static_cast<double>(fast.image_bytes),
                "B");
  dump_spans(fast.spans, options.workdir + "/spans-churn_stream-fast.jsonl");
  dump_spans(paced.spans, options.workdir + "/spans-churn_stream-paced.jsonl");
}

}  // namespace tassbench
