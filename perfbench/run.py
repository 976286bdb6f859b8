#!/usr/bin/env python3
"""Federation-run benchmark: whole gridfed federation runs, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_workload (the gridfed library plus perfbench/workload_run.cpp)
in .bench_build/perfbench, then runs the workload in child processes, one
federation run each, until S seconds of timed runs are spent (at least
MIN_TIMED_RUNS).  A crash is one failed run; the others still report.

Every run is checked before a number is reported:
  * every loaded job has exactly one outcome and the GridBank is balanced;
  * repeated runs of one seed give one digest and identical sim metrics;
  * one run at the repository's default seed (DEFAULT_SEED) must give the
    pinned outcome digest in perfbench/pins.json;
  * auction-direct-par must give auction-direct's digest for the same seed;
  * with --trace 1, the traced run's sim metrics and digest equal the
    untraced runs', and every replayed auction winner matches.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  Lines before it give the host and build record and a readable
table.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_workload"

DEFAULT_SEED = 0x9042005  # core::FederationConfig{}.seed
WORKLOADS = ("auction-direct", "auction-tree", "economy-dbc", "auction-direct-par")
MIN_TIMED_RUNS = 3
# A typical host-probe time on the 4-CPU host the benchmark was written on;
# jobs_per_s is quoted at that host speed (README "Host-speed correction").
HOST_PROBE_QUIET_S = 0.18
CHILD_TIMEOUT_S = 60
# Address-space cap per child: a crashing run (auction-tree's FEL overflow
# surfaces as std::bad_alloc) must not take the host's memory with it.
CHILD_MEMORY_BYTES = 4 << 30
SIM_METRICS = ("accept_pct", "wire_msgs_per_job", "wire_bytes_per_job",
               "mean_response_s")

END_TO_END = (  # name, unit
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accept_pct", "%"),
    ("wire_msgs_per_job", "msgs/job"),
    ("wire_bytes_per_job", "B/job"),
    ("mean_response_s", "s"),
)
PER_LAYER_UNITS = {
    "workload.generate_s": "s", "workload.jobs": "count",
    "core.construct_s": "s", "core.load_s": "s", "core.run_s": "s",
    "core.enquiries": "count", "core.enquiry_decline_ratio": "ratio",
    "sim.events": "count", "sim.events_per_job": "events/job",
    "sim.events_per_s": "1/s", "sim.fel_peak": "count",
    "sim.dispatch_gap_ns.p50": "ns", "sim.dispatch_gap_ns.p99": "ns",
    "sim.parallel.cpu_util": "ratio",
    "market.auctions": "count", "market.bids_priced": "count",
    "market.bids_per_auction": "bids/book",
    "market.feasible_per_auction": "bids/book", "market.fill_rate": "ratio",
    "market.solicit_flushes": "count", "market.clear_ns": "ns",
    "cluster.earliest_start_ns": "ns", "cluster.profile_steps_mean": "steps",
    "cluster.holds_placed": "count", "cluster.hold_cancel_ratio": "ratio",
    "transport.wire_msgs": "count", "transport.wire_bytes": "B",
    "directory.queries": "count", "directory.query_msgs": "count",
    "obs.trace_overhead_pct": "%",
}
# Layers that only the parallel and tree workloads exercise; BENCHMARK.json
# keeps neither workload, so these print in the table but stay out of the
# result line.
IDLE_LAYER_UNITS = {
    "sim.parallel.shards": "count", "sim.parallel.windows": "count",
    "sim.parallel.events_per_window": "events/window",
    "transport.relay_msgs": "count", "transport.bids_pruned": "count",
    "transport.prune_ratio": "ratio",
    "coalition.formed": "count", "coalition.local_msgs": "count",
    "coalition.awards": "count",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark binary; build output goes
    to stderr so stdout stays the result."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no gridfed source tree at {ROOT}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_workload",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def build_record(seed, workload):
    out = subprocess.run([str(BINARY), "--build-info"], capture_output=True,
                         text=True, timeout=30)
    if out.returncode:
        fail("perfbench_workload --build-info failed")
    info = json.loads(out.stdout)
    if info["build_type"] != "Release" or info["sanitized"] or not info["ndebug"]:
        fail(f"refusing to record from a {info['build_type']} build "
             f"(sanitized={info['sanitized']}, NDEBUG={info['ndebug']})", 3)
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": info["usable_cpus"], "compiler": "g++ " + info["compiler"],
            "build_type": info["build_type"], "git_commit": commit,
            "host": platform.node(), "workload": workload, "seed": seed}


def limit_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def run_child(workload, seed, traced=False):
    """One federation run in its own process: its JSON, or None when it
    crashed, timed out or failed its own checks."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    started = time.monotonic()
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S,
                             preexec_fn=limit_child_memory)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out")
        return None, time.monotonic() - started
    elapsed = time.monotonic() - started
    if out.returncode != 0:
        log(f"{workload} seed {seed}: exit {out.returncode}: "
            f"{out.stderr.strip()[-400:]}")
        return None, elapsed
    try:
        return json.loads(out.stdout.strip().splitlines()[-1]), elapsed
    except (ValueError, IndexError):
        log(f"{workload} seed {seed}: unreadable output")
        return None, elapsed


def same_sim(a, b):
    return a["digest"] == b["digest"] and all(a[k] == b[k] for k in SIM_METRICS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    record = build_record(args.seed, args.workload)
    pins = json.loads((BENCH_DIR / "pins.json").read_text())["digests"]
    wl = args.workload
    attempted = 0
    failed = 0
    problems = []

    def attempt(workload, seed, **kw):
        nonlocal attempted, failed
        attempted += 1
        result, elapsed = run_child(workload, seed, **kw)
        if result is None:
            failed += 1
        return result, elapsed

    # Reference runs, untimed: the pinned default-seed digest and, for the
    # parallel workload, the sequential digest of the same seed.
    if args.seed != DEFAULT_SEED:
        pin_run, _ = attempt(wl, DEFAULT_SEED)
        if pin_run is not None and pin_run["digest"] != pins[wl]:
            failed += 1
            problems.append(f"default-seed digest {pin_run['digest']} != "
                            f"pinned {pins[wl]}")
    seq_ref = None
    if wl == "auction-direct-par":
        seq_ref, _ = attempt("auction-direct", args.seed)

    # Timed runs.
    timed = []
    durations = []
    start = time.monotonic()
    while True:
        spent = time.monotonic() - start
        expected = statistics.median(durations) if durations else 0.0
        if len(durations) >= MIN_TIMED_RUNS and spent + expected > args.seconds:
            break
        result, elapsed = attempt(wl, args.seed)
        durations.append(elapsed)
        if result is None:
            continue
        reference = timed[0] if timed else None
        bad = []
        if reference is not None and not same_sim(result, reference):
            bad.append("outputs differ between runs of one seed")
        if args.seed == DEFAULT_SEED and result["digest"] != pins[wl]:
            bad.append(f"digest {result['digest']} != pinned {pins[wl]}")
        if wl == "auction-direct-par" and (
                seq_ref is None or result["digest"] != seq_ref["digest"]):
            bad.append("digest differs from auction-direct's for this seed")
        if bad:
            failed += 1
            problems.extend(bad)
        else:
            timed.append(result)

    traced = None
    if args.trace:
        traced, _ = attempt(wl, args.seed, traced=True)
        if traced is not None and timed and not same_sim(traced, timed[0]):
            failed += 1
            problems.append("traced run's sim metrics differ from untraced")
            traced = None

    for p in problems:
        log(f"{wl} seed {args.seed}: {p}")
    correct = failed == 0 and bool(timed) and (traced is not None or not args.trace)

    def med(key):
        return statistics.median(r[key] for r in timed) if timed else 0.0

    # run() wall time corrected to the host's speed: the host probe's time
    # around each run against its time on a quiet host.
    for r in timed:
        r["run_host_s"] = r["run_s"] * HOST_PROBE_QUIET_S / r["host_probe_s"]
    run_host_s = med("run_host_s")
    first = timed[0] if timed else None
    wall_jobs_per_s = first["jobs"] / med("run_s") if first else 0.0
    e2e = {
        "jobs_per_s": first["jobs"] / run_host_s if run_host_s > 0 else 0.0,
        "setup_s": med("setup_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    for k in SIM_METRICS:
        e2e[k] = first[k] if first else 0.0

    if args.trace:
        layers = dict(traced["layers"]) if traced else {}
        core_run = next((s["end_s"] - s["start_s"] for s in traced["spans"]
                         if s["name"] == "core.run"), 0.0) if traced else 0.0
        core_run_host = (core_run * HOST_PROBE_QUIET_S / traced["host_probe_s"]
                         if traced else 0.0)
        events = first["events"] if first else 0
        layers.update({
            "workload.generate_s": med("generate_s"),
            "workload.jobs": first["jobs"] if first else 0,
            "core.construct_s": med("construct_s"),
            "core.load_s": med("load_s"),
            "core.run_s": core_run,
            "sim.events": events,
            "sim.events_per_job": events / first["jobs"] if first else 0.0,
            "sim.events_per_s": events / run_host_s if run_host_s > 0 else 0.0,
            "obs.trace_overhead_pct":
                100.0 * (core_run_host / run_host_s - 1.0)
                if run_host_s > 0 and traced else 0.0,
        })
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
        idle = {k: {"value": layers.get(k, 0.0), "unit": u}
                for k, u in IDLE_LAYER_UNITS.items()}
        if traced:
            out_dir = BUILD_DIR / "traces"
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{wl}-seed{args.seed}.json"
            path.write_text(json.dumps({"record": record, "spans": traced["spans"],
                                        "replay": traced["replay"],
                                        "metrics": {**metrics, **idle}},
                                       indent=1))
            log(f"spans written to {path}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
        idle = {}

    record["timed_runs"] = len(timed)
    record["run_s"] = [r["run_s"] for r in timed]
    record["host_probe_s"] = [r["host_probe_s"] for r in timed]
    print("record " + json.dumps(record))
    for k, m in {**metrics, **idle}.items():
        print(f"  {k:34s} {m['value']:>18.6g} {m['unit']}")
    print(f"  {'failed_pct':34s} {100.0 * failed / max(attempted, 1):>18.6g} %")
    print(f"  {'jobs_per_wall_s (uncorrected)':34s} {wall_jobs_per_s:>18.6g} 1/s")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
