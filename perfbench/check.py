"""Print every metric of every workload and run the benchmark's self-test.

    python3 perfbench/check.py

For each workload, at the default seed: one untraced run (end-to-end
metrics, correctness gate) and two traced runs (per-layer metrics), each
as short as a run can be.  It then checks that

  * the two traced runs give identical counts (calls, steps, mode-steps,
    points, roots, bytes, evaluations);
  * those counts equal the ones recorded in reference.json at the seed
    commit (a change that moves a count on purpose regenerates
    reference.json with make_reference.py and says so);
  * the dominant layer of each workload takes its share of the traced
    wall time (scan-default: evolve_pair >= 90%; oracle-overlay:
    evolve_ww >= 90%; crosscheck: series_solution >= 20%).

Exits non-zero if any run fails its correctness gate or a check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench_out"
SHARES = {"scan-default": ("dde.evolve_pair.self_s", 0.90),
          "oracle-overlay": ("ww.evolve_ww.self_s", 0.90),
          "crosscheck": ("analytic.series_solution.self_s", 0.20)}
SECONDS = 1  # the shortest run: one pass, or one untraced and one traced pass when traced


def run(workload, trace):
    seed = workloads.DEFAULT_SEED
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
                   check=True)
    path = RESULTS / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main():
    seed_counts = json.loads(workloads.REFERENCE.read_text())["counts"]

    problems, lines = [], []
    for name in workloads.WORKLOADS:
        plain = run(name, 0)
        traced = [run(name, 1) for _ in range(2)]
        for r in [plain, *traced]:
            if not r["correct"]:
                problems.append(f"{name}: {r['failed']} of {r['attempted']} operations failed")
        counts = [{k: v["value"] for k, v in r["metrics"].items() if tracing.is_count(k)}
                  for r in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            problems.append(f"{name}: counts differ between two traced runs: {diff}")
        moved = {k: (seed_counts[name].get(k), v) for k, v in counts[0].items()
                 if seed_counts[name].get(k) != v}
        if moved:
            problems.append(f"{name}: counts moved from reference.json (was, now): {moved}")
        else:
            lines.append(f"{name}: counts equal reference.json's")
        metric, floor = SHARES[name]
        wall = statistics.median(w for r in traced for w in r["traced_walls"])
        share = statistics.median(r["metrics"][metric]["value"] for r in traced) / wall
        ok = share >= floor
        lines.append(f"{name}: {metric} is {share:.1%} of traced wall time "
                     f"({'>=' if ok else '<'} {floor:.0%}); trace.overhead_frac "
                     + ", ".join(f"{r['metrics']['trace.overhead_frac']['value']:+.3f}" for r in traced))
        if not ok:
            problems.append(lines[-1])

    print("\n== self-test ==")
    print("\n".join(lines))
    for p in problems:
        print("FAIL", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
