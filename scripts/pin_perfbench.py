#!/usr/bin/env python3
"""Regenerate BENCH_perfbench.json, the pinned results of perfbench.

Run from the repository root on an otherwise idle machine:

    python3 scripts/pin_perfbench.py

For every workload in BENCHMARK.json it makes one untraced and one traced
perfbench run at seed 1 for BENCHMARK.json's run_seconds, and keeps the
end-to-end metrics, the per-layer metrics, sim_digest and the provenance
block. It then times the whole suite: a built `cppbench -related` at the
default scale, three runs each on one and on two workers, alternating, read
from its "total time:" line. It refuses to pin a run that failed an
operation. The whole pass takes about three minutes on two cores.
"""

import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_perfbench.json")
SEED = 1
SUITE_RUNS = 3


def perfbench(workload, seconds, traced):
    """Runs perfbench once and returns its report and result lines."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(int(traced))]
    print("pin: python3", " ".join(cmd[1:]), file=sys.stderr)
    out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    lines = out.splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        sys.exit(f"pin: {workload} (traced={traced}) failed {result['failed']} of "
                 f"{result['attempted']} operations: {report['failures']}")
    return report, result


def go_seconds(duration):
    """Parses a Go duration string such as 1m2.5s or 850ms."""
    units = {"h": 3600, "m": 60, "s": 1, "ms": 1e-3}
    return sum(float(n) * units[u] for n, u in re.findall(r"([\d.]+)(h|ms|m|s)", duration))


def suite_wall(binary, workers):
    """Runs the whole suite once and returns its total time in seconds."""
    cmd = [binary, "-related", "-parallel", str(workers)]
    print("pin: cppbench", " ".join(cmd[1:]), file=sys.stderr)
    err = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True).stderr
    m = re.search(r"^total time: (\S+)$", err, re.M)
    if m is None:
        sys.exit(f"pin: no total time line in cppbench's output:\n{err}")
    return go_seconds(m.group(1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    pin = {
        "command": "python3 scripts/pin_perfbench.py",
        "seed": SEED,
        "seconds": seconds,
        "provenance": None,
        "workloads": {},
    }
    for w in (w["name"] for w in benchmark["workloads"]):
        report, result = perfbench(w, seconds, traced=False)
        traced_report, traced = perfbench(w, seconds, traced=True)
        for r in (report, traced_report):
            if pin["provenance"] not in (None, r["provenance"]):
                sys.exit(f"pin: provenance changed between runs: {r['provenance']}")
            pin["provenance"] = r["provenance"]
        if traced_report["sim_digest"] != report["sim_digest"]:
            sys.exit(f"pin: {w} digests differ: {report['sim_digest']} untraced, "
                     f"{traced_report['sim_digest']} traced")
        pin["workloads"][w] = {
            "sim_digest": report["sim_digest"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": result["metrics"],
            "layers": traced["metrics"],
        }

    binary = os.path.join(ROOT, ".bench_build", "cppbench")
    subprocess.run(["go", "build", "-o", binary, "./cmd/cppbench"], cwd=ROOT, check=True)
    runs = {1: [], 2: []}
    for _ in range(SUITE_RUNS):
        for workers in runs:
            runs[workers].append(suite_wall(binary, workers))
    pin["suite_wall_s"] = {
        "command": "cppbench -related -parallel N (default scale)",
        **{f"workers_{w}": {"runs": r, "median": statistics.median(r)} for w, r in runs.items()},
    }

    with open(OUT, "w") as f:
        json.dump(pin, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"pin: wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
