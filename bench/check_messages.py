#!/usr/bin/env python3
"""CI gate for the message-scaling trajectory.

Compares a freshly measured fig10 JSON (bench_fig10_msg_per_job_scaling
--json=...) against the checked-in BENCH_messages.json and fails when
messages/job OR bytes/job regressed by more than the tolerance on any
point present in both files — on the batched direct transport, the tree
transport (the PR 4 headline), AND the coalition mode riding the tree
(the PR 5 group-addressed dissemination).  The bytes/job columns gate
the wire-size model end-to-end: a payload-bloating change that keeps
message counts flat still fails here.  Points are matched by federation
size, so the CI smoke run may measure only the 50-cluster point.  A
metric missing from the baseline (an older BENCH_messages.json) is
skipped, so adding a mode never breaks existing baselines.

Usage: check_messages.py MEASURED.json CHECKED_IN.json [tolerance_pct]
"""

import json
import sys


def points(doc):
    # BENCH_messages.json nests fig10 under "fig10"; a bare fig10 dump
    # is the artifact itself.
    fig10 = doc.get("fig10", doc)
    return {p["size"]: p for p in fig10["auction_batching"]["points"]}


METRICS = ("batched_msgs_per_job", "tree_wire_msgs_per_job",
           "coalition_wire_msgs_per_job",
           # bytes/job per transport column (wire-size model)
           "batched_bytes_per_job", "tree_bytes_per_job",
           "coalition_bytes_per_job",
           # kBid bytes/job on the tree (the convergecast prune + delta
           # encoding headline — a regression here means the compact
           # frame accounting degraded even if totals still pass)
           "tree_bid_bytes_per_job")

# Hard invariants checked within the MEASURED file alone (no baseline
# needed): the pruned + delta-encoded convergecast must keep the tree's
# total bytes/job at or below the batched direct transport's at EVERY
# federation size, with acceptance unchanged — the whole point of the
# overlay is paying fewer bytes, not just fewer messages.  The same 5%
# tolerance bounds measurement wiggle.


def invariant_failures(measured, tolerance):
    failures = []
    for size, point in sorted(measured.items()):
        if "tree_bytes_per_job" not in point:
            continue
        limit = point["batched_bytes_per_job"] * (1.0 + tolerance / 100.0)
        ok = point["tree_bytes_per_job"] <= limit
        print(f"size {size:>3} tree_bytes_per_job {point['tree_bytes_per_job']:10.1f}"
              f" <= batched_bytes_per_job {point['batched_bytes_per_job']:10.1f}"
              f" (+{tolerance:.0f}%)  {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append((size, "tree_bytes_per_job>batched_bytes_per_job"))
    return failures


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    measured = points(json.load(open(sys.argv[1])))
    baseline = points(json.load(open(sys.argv[2])))
    tolerance = float(sys.argv[3]) if len(sys.argv) > 3 else 5.0

    failures = []
    checked = 0
    for size, point in measured.items():
        base = baseline.get(size)
        if base is None:
            continue
        for metric in METRICS:
            if metric not in point or metric not in base:
                continue
            checked += 1
            limit = base[metric] * (1.0 + tolerance / 100.0)
            status = "FAIL" if point[metric] > limit else "ok"
            print(f"size {size:>3} {metric:<28} measured {point[metric]:8.3f}"
                  f"  baseline {base[metric]:8.3f}  (+{tolerance:.0f}% limit"
                  f" {limit:8.3f})  {status}")
            if point[metric] > limit:
                failures.append((size, metric))
    invariants = invariant_failures(measured, tolerance)
    checked += len(measured)
    failures += invariants
    if checked == 0:
        sys.exit("error: no comparable (size, metric) points found")
    if failures:
        sys.exit(f"error: messages/job regressed beyond {tolerance}% on "
                 f"{failures}")
    print(f"message scaling OK ({checked} checks within {tolerance}%)")


if __name__ == "__main__":
    main()
