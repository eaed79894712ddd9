// tassbench — the end-to-end benchmark of the TASS pipeline.
//
// Usage: tassbench --workload plan_cycle|serve_mixed|churn_stream
//                  --seed N --seconds S --trace 0|1 --workdir DIR
//                  [--smoke 1]
//
// Runs one workload in this process (so its peak RSS is the workload's
// own), checks every output against direct library calls, and prints
// one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics every workload
// reports; with --trace 1 they are the per-layer metrics, computed from
// spans the benchmark records around each library call (dumped to DIR as
// JSONL). The line before it, `# detail {...}`, holds the workload's own
// metrics of the same kind.
// Exits 1 if any check failed or the run threw.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <string>

#include "common.hpp"

namespace tassbench {

double Tracer::self_ms(const std::string& name, std::uint64_t id) const {
  double total = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.id != id || r.name != name) continue;
    double children = 0.0;
    for (std::size_t j = i + 1; j < records_.size(); ++j) {
      if (records_[j].parent == static_cast<std::int64_t>(i)) {
        children += records_[j].end_us - records_[j].start_us;
      }
    }
    total += (r.end_us - r.start_us) - children;
  }
  return total / 1e3;
}

double Tracer::duration_ms(const std::string& name, std::uint64_t id) const {
  for (const Record& r : records_) {
    if (r.id == id && r.name == name) return (r.end_us - r.start_us) / 1e3;
  }
  return 0.0;
}

namespace {

const char* const kLayers[] = {"bgp",  "census", "trie",  "core",
                               "scan", "state",  "serve", "stream"};

/// Index of `layer` in kLayers, or -1.
int layer_index(const std::string& layer) {
  for (std::size_t i = 0; i < std::size(kLayers); ++i) {
    if (layer == kLayers[i]) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

void LayerTotals::add(const std::vector<Tracer::Record>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Tracer::Record& r : spans) {
    if (r.parent >= 0) {
      child_us[static_cast<std::size_t>(r.parent)] += r.end_us - r.start_us;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Record& r = spans[i];
    const int layer = layer_index(r.name.substr(0, r.name.find('.')));
    if (layer < 0) continue;
    totals_[layer].ms += (r.end_us - r.start_us - child_us[i]) / 1e3;
    ++totals_[layer].calls;
  }
}

void LayerTotals::add_call(const std::string& layer, double ms) {
  Total& total = totals_[layer_index(layer)];
  total.ms += ms;
  ++total.calls;
}

std::uint64_t LayerTotals::calls(const std::string& layer) const {
  return totals_[layer_index(layer)].calls;
}

void LayerTotals::report(double ops, double traced_ms, Report& report) const {
  for (std::size_t i = 0; i < std::size(kLayers); ++i) {
    const std::string layer = kLayers[i];
    report.add(layer + ".share", totals_[i].ms / traced_ms, "ratio");
    report.add(layer + ".calls_per_op",
               static_cast<double>(totals_[i].calls) / ops, "count");
  }
  report.add("op_ms", traced_ms / ops, "ms");
  report.add("ops_traced", ops, "count");
}

void dump_spans(const std::vector<Tracer::Record>& spans,
                const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << std::fixed << std::setprecision(3);
  for (const Tracer::Record& r : spans) {
    out << "{\"name\":\"" << r.name << "\",\"id\":" << r.id
        << ",\"parent\":" << r.parent << ",\"start_us\":" << r.start_us
        << ",\"end_us\":" << r.end_us << "}\n";
  }
}

void flush_setup_writes() { ::sync(); }

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}");
}

void print_result(const Report& report) {
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("# detail ");
  print_metrics(report.details);
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  print_metrics(report.metrics);
  std::printf("}\n");
}

Sizes smoke_sizes() {
  Sizes s;
  s.v4_cells = 20'000;
  s.v6_routes = 4'000;
  s.v6_hitlist = 20'000;
  s.host_scale = 0.001;
  s.churn_steps = 30;
  s.churn_per_step = 40;
  s.setup_repeats = 2;
  s.min_cycles = 2;
  s.min_requests = 200;
  return s;
}

int usage() {
  std::fprintf(stderr,
               "usage: tassbench --workload plan_cycle|serve_mixed|"
               "churn_stream --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--smoke 1]\n");
  return 2;
}

}  // namespace
}  // namespace tassbench

int main(int argc, char** argv) {
  using namespace tassbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--smoke") {
      options.smoke = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.workdir.empty() || options.seconds <= 0.0) {
    return usage();
  }
  if (options.smoke) options.sizes = smoke_sizes();

  Report report;
  try {
    if (options.workload == "plan_cycle") {
      run_plan_cycle(options, report);
    } else if (options.workload == "serve_mixed") {
      run_serve_mixed(options, report);
    } else if (options.workload == "churn_stream") {
      run_churn_stream(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tassbench %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  std::fflush(stdout);
  print_result(report);
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
