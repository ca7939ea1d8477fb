#!/usr/bin/env python3
"""The DDoShield-IoT testbed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and with it the
repository's libraries from src/) in Release under .bench_build/, then
starts one fresh `perfbench` process per measured run until the runs have
measured at least S seconds, hold at least 100 windows and number at least
three. Each process sets the workload up and runs it once, so its peak RSS
and CPU time belong to that run alone. Every run's detection output is
checked against the recorded reference for the seed.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
`attempted` counts the windows scored and `failed` those whose output
differs from the reference (failed / attempted is the failed_frac metric).
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from traced runs
interleaved with untraced ones. The exit code is 0 only when every check
passed.

Maintenance modes:
    python3 perfbench/run.py --selftest          # the benchmark's own tests
    python3 perfbench/run.py --record 0-63       # rewrite reference.json
    python3 perfbench/run.py --record 0-63 --workload testbed-cnn   # one workload
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_FILE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ("testbed-kmeans", "testbed-cnn", "fleet-ids")

MIN_WINDOWS = 100        # so at least ten close latencies lie beyond p90
MIN_RUNS = 3             # so the median over runs sets one outlying run aside
MAX_RUNS = 40
RUN_TIMEOUT_S = 170      # one measured process
BUDGET_S = 60            # no new measured process starts after this
MIN_LEDGER_COVERAGE = 0.9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics ---------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile of `values` and the count of samples beyond it.

    The q-th percentile is the smallest sample with at least q of the
    samples at or below it; the second value is how many samples lie
    strictly beyond its rank, which must reach ten for the percentile to
    be reported.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values):
    return statistics.median(values)


# --- build and host -----------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures (once) and builds `target` in Release; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def source_id():
    """The git commit when there is one, else a digest of src/ and perfbench/."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
        if head:
            return head
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def host_info(run):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "host_cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "compiler": run["compiler"],
        "build_type": run["build_type"],
        "release": run["build_type"] == "Release",
        "source": source_id(),
    }


# --- correctness --------------------------------------------------------------

def load_reference(binary, workload, seed):
    """The recorded surface for the seed; seeds outside reference.json are
    computed once by the independent reference path and cached."""
    if os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE) as f:
            recorded = json.load(f).get(workload, {})
        if str(seed) in recorded:
            return recorded[str(seed)]
    cache = os.path.join(build_dir(), "references", f"{workload}-{seed}.json")
    if os.path.exists(cache):
        with open(cache) as f:
            return json.load(f)
    log(f"perfbench: seed {seed} has no recorded {workload} reference; computing it")
    surface = reference_surface(binary, workload, seed)
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    with open(cache, "w") as f:
        json.dump(surface, f)
    return surface


def reference_surface(binary, workload, seed):
    proc = subprocess.run([binary, "--reference", "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"reference run failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["reference"]


def check_surface(workload, got, want):
    """Returns (windows scored, windows failing the check)."""
    if workload == "fleet-ids":
        same = all(got[k] == want[k] for k in
                   ("row_digest", "verdict_digest", "action_digest", "conservation_ok", "windows"))
        return got["windows"], 0 if same and got["conservation_ok"] else got["windows"]
    mine, ref = got["window_predicted"], want["window_predicted"]
    failed = sum(a != b for a, b in zip(mine, ref)) + abs(len(mine) - len(ref))
    if failed == 0 and got["average_accuracy"] != want["average_accuracy"]:
        failed = len(mine)
    return len(mine), failed


# --- measured runs ------------------------------------------------------------

def measured_run(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pkts_per_s(run):
    return run["packets"] / run["run_wall_s"]


def run_sets(binary, workload, seed, seconds, started, traces, min_runs, min_windows):
    """One fresh process per measured run, alternating between the sets in
    `traces` so drift on the host spreads over all of them, until each set
    holds `min_runs` runs, `seconds` of measured wall and `min_windows`
    windows, or the time budget runs out."""
    runs = {trace: [] for trace in traces}

    def done(trace):
        rs = runs[trace]
        enough = (len(rs) >= min_runs and sum(r["run_wall_s"] for r in rs) >= seconds and
                  sum(len(r["close_ns"]) for r in rs) >= min_windows)
        return enough or len(rs) >= MAX_RUNS

    while not all(done(t) for t in traces):
        for trace in traces:
            if done(trace):
                continue
            if (time.monotonic() - started > BUDGET_S and
                    all(len(runs[t]) >= min_runs for t in traces)):
                log("perfbench: time budget reached; stopping with fewer runs")
                return runs
            runs[trace].append(measured_run(binary, workload, seed, trace))
    return runs


def end_to_end(runs):
    closes = [ns for r in runs for ns in r["close_ns"]]
    p50, _ = percentile(closes, 0.50)
    p90, beyond = percentile(closes, 0.90)
    if beyond < 10:
        log(f"perfbench: only {beyond} samples beyond p90 ({len(closes)} windows)")
    return {
        "setup_s": median([s for r in runs for s in r["setup_s"]]),
        "pkts_per_s": median([pkts_per_s(r) for r in runs]),
        "close_p50_ms": p50 * 1e-6,
        "close_p90_ms": p90 * 1e-6,
        "cpu_us_per_pkt": median([r["run_cpu_s"] * 1e6 / r["packets"] for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
    }, len(closes)


def per_layer(traced, untraced):
    names = traced[0]["layers"].keys()
    layers = {name: median([r["layers"][name] for r in traced]) for name in names}
    layers["ledger.coverage"] = median(
        [1.0 - r["layers"]["ledger.unattributed_s"] / r["layers"]["ledger.wall_s"]
         for r in traced])
    plain = median([pkts_per_s(r) for r in untraced])
    layers["obs.trace_overhead"] = (plain - median([pkts_per_s(r) for r in traced])) / plain
    return layers


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_benchmark(args):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"perfbench: no repository sources under {ROOT}; run from a checkout")
        return 2
    spec = benchmark_spec()
    binary = build("perfbench")
    started = time.monotonic()
    want = load_reference(binary, args.workload, args.seed)

    if args.trace:
        # The untraced runs here only anchor obs.trace_overhead.
        runs = run_sets(binary, args.workload, args.seed, args.seconds / 2, started,
                        (False, True), 1, 0)
    else:
        runs = run_sets(binary, args.workload, args.seed, args.seconds, started, (False,),
                        MIN_RUNS, MIN_WINDOWS)
    everything = [r for rs in runs.values() for r in rs]

    attempted = failed = 0
    for r in everything:
        scored, bad = check_surface(args.workload, r["surface"], want)
        attempted += scored
        failed += bad
    correct = failed == 0 and attempted > 0

    host = host_info(everything[0])
    if not host["release"]:
        log(f"perfbench: WARNING: build type {host['build_type']!r} is not Release; "
            "these figures are not comparable")
    print("host: " + json.dumps(host, sort_keys=True))

    if args.trace:
        values = per_layer(runs[True], runs[False])
        listed = spec["per_layer"]
        if values["ledger.coverage"] < MIN_LEDGER_COVERAGE:
            log(f"perfbench: ledger covers {values['ledger.coverage']:.1%} of wall, "
                f"below {MIN_LEDGER_COVERAGE:.0%}")
            correct = False
    else:
        values, windows = end_to_end(runs[False])
        listed = spec["end_to_end"]
        print(f"windows: {windows} pooled from {len(runs[False])} runs")
    print(f"failed_frac: {failed / max(attempted, 1):.6g} ({failed} of {attempted} windows)")

    metrics = {}
    for m in listed:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:36s} {value:>18.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# --- maintenance --------------------------------------------------------------

def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(seeds, workloads):
    binary = build("perfbench")
    recorded = {}
    if os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE) as f:
            recorded = json.load(f)
    for workload in workloads:
        for seed in seeds:
            log(f"perfbench: recording {workload} seed {seed}")
            recorded.setdefault(workload, {})[str(seed)] = reference_surface(
                binary, workload, seed)
    write_references(recorded)
    return 0


def write_references(recorded):
    """reference.json with one line per workload and seed."""
    blocks = []
    for workload in sorted(recorded):
        lines = [f"  {json.dumps(seed)}: {json.dumps(recorded[workload][seed], sort_keys=True)}"
                 for seed in sorted(recorded[workload], key=int)]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n }")
    with open(REFERENCE_FILE, "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


def selftest():
    binary = build("perfbench_selftest")
    if subprocess.run([binary]).returncode != 0:
        return 1
    unit = subprocess.run([sys.executable, "-m", "unittest", "-v", "test_run"], cwd=BENCH_DIR)
    return unit.returncode


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", metavar="SEEDS", help="e.g. 0-63")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.record:
        return record(parse_seeds(args.record),
                      (args.workload,) if args.workload else WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
