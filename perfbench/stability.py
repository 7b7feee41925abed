"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/stability.py

Runs run.py untraced on seeds 0-9 for each workload, at
BENCHMARK.json's run_seconds, and for every end-to-end metric prints the
interquartile range of the ten values over their median next to a third
of the metric's bound.  The samples, spreads and host record are written
to perfbench/stability.json, which holds the ten-run samples behind the
bounds in BENCHMARK.json.  Takes about 20 minutes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEEDS = range(10)


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"host": {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                    "loadavg_at_start": os.getloadavg()},
           "run_seconds": spec["run_seconds"], "workloads": {}}
    problems = []
    for name in workloads.WORKLOADS:
        samples = {m: [] for m in bounds}
        for seed in SEEDS:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"], stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                problems.append(f"{name} seed {seed}: {result['failed']} operations failed")
            for m in bounds:
                samples[m].append(result["metrics"][m]["value"])
        out["workloads"][name] = {}
        for m, values in samples.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            out["workloads"][name][m] = {"median": median, "spread": spread, "values": values}
            ok = spread < bounds[m] / 3
            print(f"{name:15s} {m:16s} median {median:10.4f}  spread {spread:.3f}  "
                  f"bound/3 {bounds[m] / 3:.3f}  {'ok' if ok else 'WIDE'}")
            if not ok and m != "setup_s":
                problems.append(f"{name} {m}: spread {spread:.3f} >= bound/3 {bounds[m] / 3:.3f}")
    (HERE / "stability.json").write_text(json.dumps(out, indent=1) + "\n")
    for w in problems:
        print("FAIL", w)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
