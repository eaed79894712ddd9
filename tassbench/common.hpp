// Shared plumbing of the end-to-end benchmark: run options, the metric
// sink that becomes the final JSON line, the span tracer, and small
// timing/percentile helpers.
//
// Spans are recorded by the benchmark around each call into a library
// layer (never inside the library): name, start, end, parent span and
// cycle/request id. They stay in memory and are written out once when
// the run ends. With tracing off, Tracer::span() records nothing and the
// guarded call runs exactly as it would unwrapped.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace tassbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_since(Clock::time_point start) {
  return seconds_between(start, Clock::now()) * 1e3;
}
inline double us_since(Clock::time_point start) {
  return seconds_between(start, Clock::now()) * 1e6;
}

/// Linear-interpolated quantile of an unsorted sample (copied).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Problem sizes. The defaults are the measured configuration; --smoke
/// shrinks every world so the whole benchmark runs in seconds.
struct Sizes {
  std::size_t v4_cells = 500'000;     // m-cells of the v4 RIB
  std::size_t v6_routes = 125'000;    // announced v6 routes
  std::size_t v6_hitlist = 400'000;   // v6 hitlist addresses
  double host_scale = 0.02;           // census hosts (x paper counts)
  std::size_t churn_steps = 200;      // MRT update steps, at least
  std::size_t churn_per_step = 300;   // prefixes touched per step
  std::size_t setup_repeats = 3;      // setups per run (setup_s median)
  std::size_t min_cycles = 3;         // plan_cycle repetitions at least
  std::size_t min_requests = 2000;    // serve_mixed requests at least
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir;  // inputs, images and the span dump live here
  Sizes sizes;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operation accounting and the metric lists of one run. `metrics` are
/// the workload-neutral metrics every workload reports (the final JSON
/// line); `details` are the workload's own, finer metrics (a `# detail`
/// line printed just before it).
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a false `ok` is a failed operation
  /// and is reported on stderr with `what`.
  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    }
  }
};

class Tracer {
 public:
  struct Record {
    std::string name;
    std::uint64_t id = 0;      // cycle / request id the span belongs to
    std::int64_t parent = -1;  // index of the enclosing span, -1 at top
    double start_us = 0.0;     // since tracer creation
    double end_us = 0.0;
  };

  /// Span times are microseconds since `epoch`; tracers of several
  /// threads that share an epoch share one timeline.
  explicit Tracer(bool enabled, Clock::time_point epoch = Clock::now())
      : enabled_(enabled), epoch_(epoch) {}

  /// Opens a span; returns its index (or -1 when tracing is off).
  std::int64_t open(std::string name, std::uint64_t id) {
    if (!enabled_) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back({std::move(name), id, parent, now_us(), 0.0});
    stack_.push_back(static_cast<std::int64_t>(records_.size() - 1));
    return stack_.back();
  }
  void close(std::int64_t index) {
    if (index < 0) return;
    records_[static_cast<std::size_t>(index)].end_us = now_us();
    stack_.pop_back();
  }

  /// Runs `fn` inside a span and returns its result.
  template <class Fn>
  decltype(auto) span(const char* name, std::uint64_t id, Fn&& fn) {
    struct Guard {
      Tracer& tracer;
      std::int64_t index;
      ~Guard() { tracer.close(index); }
    } guard{*this, open(name, id)};
    return fn();
  }

  const std::vector<Record>& records() const noexcept { return records_; }

  /// Self time of every span named `name` with id `id`: duration minus
  /// the part covered by its direct children, in milliseconds.
  double self_ms(const std::string& name, std::uint64_t id) const;
  /// Duration of the (first) span named `name` with id `id`, in ms.
  double duration_ms(const std::string& name, std::uint64_t id) const;


 private:
  double now_us() const { return seconds_between(epoch_, Clock::now()) * 1e6; }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Record> records_;
  std::vector<std::int64_t> stack_;
};

/// Self time and call count per library layer, summed over the spans of
/// a run. A span's layer is its name up to the first '.'; spans of the
/// benchmark's own grouping (plan.v4_leg, ...) belong to no layer.
class LayerTotals {
 public:
  /// Adds the spans of one tracer (parents index into `spans`).
  void add(const std::vector<Tracer::Record>& spans);
  /// Adds one call timed outside a tracer.
  void add_call(const std::string& layer, double ms);
  std::uint64_t calls(const std::string& layer) const;
  /// Reports, for every layer, `<layer>.share` (its self time ÷
  /// `traced_ms`, the wall time of the threads that made the calls) and
  /// `<layer>.calls_per_op`; a layer the workload never calls reads 0.
  /// Also reports `op_ms` = `traced_ms` ÷ `ops` and `ops_traced`.
  void report(double ops, double traced_ms, Report& report) const;

 private:
  struct Total {
    double ms = 0.0;
    std::uint64_t calls = 0;
  };
  Total totals_[8];  // one per layer, in kLayers order
};

/// Writes spans as one JSON object per line.
void dump_spans(const std::vector<Tracer::Record>& spans,
                const std::string& path);

/// Flushes the files setup wrote, so that their writeback does not land
/// in the measured part of the run. Called after the last setup, outside
/// setup_s.
void flush_setup_writes();

/// Peak resident set of this process, in MiB (getrusage).
double peak_rss_mib();

/// Runs one workload; each fills `report` and returns nothing. A thrown
/// exception is a failed run.
void run_plan_cycle(const Options& options, Report& report);
void run_serve_mixed(const Options& options, Report& report);
void run_churn_stream(const Options& options, Report& report);

}  // namespace tassbench
