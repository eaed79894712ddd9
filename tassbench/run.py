#!/usr/bin/env python3
"""Build and run the TASS end-to-end benchmark.

    python3 tassbench/run.py --workload plan_cycle --seed 1 --seconds 15 --trace 0
    python3 tassbench/run.py --workload all
    python3 tassbench/run.py --smoke

The first form configures and builds tassbench/ (which builds the tass
library from the repository root) into $CARGO_TARGET_DIR/tassbench
(default .bench_build/tassbench), runs one workload in its own process,
checks that the result holds exactly the metrics BENCHMARK.json
declares, each in its unit, and that the workload's `# detail` line
holds its own metrics (DETAILS), and prints the detail line and then
the result JSON as the last line of stdout. It exits non-zero, printing
no result, if the build fails, a check in the workload fails, or a
metric is missing or undeclared. With --workload all it runs
plan_cycle, serve_mixed and churn_stream in turn, each in its own
process, and prints each one's result.

--smoke runs all three workloads at tiny sizes, traced and untraced,
and asserts that every metric of BENCHMARK.json and of DETAILS is
present with its unit and that no operation failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every workload reports every metric BENCHMARK.json declares on its
# result line: the end-to-end ones with --trace 0, the per-layer ones
# with --trace 1. Each workload's own, finer metrics go on the `# detail`
# line before it; DETAILS lists them. METRICS.md maps each to its layer.
V4_STAGES = ["bgp.parse", "census.import", "bgp.rib", "bgp.partition",
             "core.attribute", "core.rank", "core.select", "bgp.reduce",
             "scan.scope", "state.seal", "state.load", "scan.run"]
V6_STAGES = ["bgp.parse6", "bgp.rib6", "bgp.partition6", "census.hitlist6",
             "bgp.tally6", "core.rank6", "core.select6", "bgp.reduce6",
             "scan.scope6", "state.seal6", "state.load6"]
DETAILS = {
    "plan_cycle": {
        0: ["cycle_s", "cycle6_s", "plan_probe_share", "plan_host_coverage"],
        1: (["plan.v4_leg_ms"]
            + [s + suffix for s in V4_STAGES for suffix in ("_ms", "_share")]
            + ["plan.untimed_gap_ms", "plan.v6_leg_ms"]
            + [s + suffix for s in V6_STAGES for suffix in ("_ms", "_share")]
            + ["plan.untimed_gap6_ms", "plan.trace_overhead_ms",
               "bgp.routes", "census.seed_hosts", "core.unattributed",
               "core.selected", "bgp.reduced", "bgp.merges", "scan.probes",
               "scan.hits", "scan.hitrate", "bgp.cells6",
               "scan.candidates6"]),
    },
    "serve_mixed": {
        0: ["serve_qps", "serve_p50_us", "serve_p99_us"],
        1: ["serve.samples", "serve.locate_p50_us", "serve.locate_p99_us",
            "serve.tally_p50_us", "serve.tally_p99_us",
            "serve.locate6_p50_us", "serve.rank_p50_us",
            "serve.plan_p50_us", "serve.plans", "serve.reload_p50_ms",
            "serve.reloads", "serve.swap_install_us", "serve.swap_drain_us",
            "trie.locate_ns_per_addr", "bgp.tally_ns_per_addr",
            "serve.locate_overhead_us", "serve.verify_us",
            "serve.addresses_per_s"],
    },
    "churn_stream": {
        0: ["churn_updates_per_s", "churn_plan_p50_ms"],
        1: ["stream.latency_samples", "stream.plan_p95_ms",
            "stream.feed_us_per_update",
            "stream.batch_p50_ms", "stream.publish_ms", "state.attach_ms",
            "stream.generator_late_ms", "stream.batches",
            "stream.updates_per_batch", "stream.coalesced",
            "stream.noop_updates", "stream.rejected_overlaps",
            "stream.rescanned_addresses", "stream.plans_published",
            "stream.framer_resyncs", "stream.image_bytes"],
    },
}

# Units of the detail metrics: by name suffix, except those named here.
DETAIL_UNITS = {
    "cycle_s": "s", "cycle6_s": "s",
    "plan_host_coverage": "ratio", "serve_qps": "req/s",
    "churn_updates_per_s": "upd/s", "scan.hitrate": "ratio",
    "stream.image_bytes": "B",
    "trie.locate_ns_per_addr": "ns/addr", "bgp.tally_ns_per_addr": "ns/addr",
    "serve.addresses_per_s": "addr/s", "stream.feed_us_per_update": "us",
}
SUFFIX_UNITS = (("_ms", "ms"), ("_us", "us"), ("_share", "ratio"))


def detail_unit(name):
    if name in DETAIL_UNITS:
        return DETAIL_UNITS[name]
    for suffix, unit in SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


RUN_TIMEOUT_S = 170
DETAIL_PREFIX = "# detail "


def fail(message):
    print("tassbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "tassbench")


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no TASS sources at the repository root (missing %s)"
                 % needed)
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", "tassbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "tassbench")


def declared_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (comment lines, details, result)."""
    workdir = os.path.join(build_dir(), "runs", workload)
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir]
    if smoke:
        command += ["--smoke", "1"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("%s exited with code %d" % (workload, proc.returncode))
    if not lines[-2].startswith(DETAIL_PREFIX):
        fail("%s printed no detail line" % workload)
    details = json.loads(lines[-2][len(DETAIL_PREFIX):])
    return lines[:-1], details, json.loads(lines[-1])


def check_metrics(workload, what, metrics, units):
    """`metrics` holds exactly the names of `units`, each in its unit."""
    for name, unit in units.items():
        if name not in metrics:
            fail("%s: %s metric %s missing" % (workload, what, name))
        if metrics[name]["unit"] != unit:
            fail("%s: %s metric %s has unit %s, expected %s"
                 % (workload, what, name, metrics[name]["unit"], unit))
    extra = set(metrics) - set(units)
    if extra:
        fail("%s: undeclared %s metrics %s" % (workload, what, sorted(extra)))


def check_result(workload, trace, details, result):
    """Every declared and detail metric is present, in its unit, and no
    checked operation failed."""
    check_metrics(workload, "result", result["metrics"], declared_units(trace))
    check_metrics(workload, "detail", details,
                  {name: detail_unit(name)
                   for name in DETAILS[workload][trace]})
    if (not result["correct"] or result["failed"] != 0
            or result["attempted"] < 1):
        fail("%s: %d of %d checked operations failed"
             % (workload, result["failed"], result["attempted"]))


def run_all(binary, workloads, seed, seconds, traces, smoke=False):
    """Runs and checks each workload in turn, printing its notes and its
    result JSON; the first failure exits non-zero."""
    for workload in workloads:
        for trace in traces:
            comments, details, result = run_workload(
                binary, workload, seed, seconds, trace, smoke)
            check_result(workload, trace, details, result)
            for line in comments:
                print(line)
            print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(DETAILS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        run_all(build(), DETAILS, 1, 1, (0, 1), smoke=True)
        print("smoke: every workload reported every metric; no check failed")
        return
    if args.workload is None:
        parser.error("--workload is required")
    workloads = DETAILS if args.workload == "all" else [args.workload]
    run_all(build(), workloads, args.seed, args.seconds, (args.trace,))


if __name__ == "__main__":
    main()
