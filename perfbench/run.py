"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan-default --seed 0 --seconds 28 --trace 0

Run from anywhere inside a checkout; the package is taken from the
checkout's `src/` (nothing is installed).  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json: the set-up time of a fresh
interpreter (median of several), then the workload's passes in a fresh
worker process (median wall time per pass, its peak RSS and the share of
operations that pass the correctness gate).  Both times are corrected for
the host's speed while they ran (see speed.py); raw times are printed too.  With --trace 1 the worker also runs
traced passes and the run reports the per-layer metrics.

Every metric is printed with its unit, and the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Details --
every sample, failed operations, environment -- go to
.perfbench_out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 11         # measured fresh-interpreter set-ups per run
RUN_LIMIT_S = 170.0     # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# a fresh interpreter imports the CLI and makes the workload's first call
PROBE = "import sys; from shortlink import cli; sys.exit(cli.main(sys.argv[1:]))"


def child_env(nproc, outdir):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        cur = env.get(var, "")
        env[var] = str(min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc)
    env["SHORTLINK_OUTDIR"] = str(outdir)
    return env


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "shortlink" / "__init__.py").is_file():
        sys.exit(f"no shortlink sources under {ROOT / 'src'}; run from a checkout of the repository")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    start = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    env_record = {"nproc": nproc, "loadavg_at_start": os.getloadavg(), "commit": git_commit()}
    outdir = ROOT / ".perfbench_out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    env = child_env(nproc, outdir)
    wl = workloads.WORKLOADS[args.workload]

    setups, raw_setups = [], []
    if not args.trace:
        # set-ups run on one core, whose speed is probed just before and after
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        for i in range(SETUP_RUNS + 1):  # the first one compiles bytecode; not counted
            before = speed.probe_time()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", PROBE, *wl.setup_argv], env=env, cwd=ROOT,
                           stdout=subprocess.DEVNULL, timeout=60, check=True)
            raw = time.perf_counter() - t0
            if i:
                raw_setups.append(raw)
                setups.append(raw * speed.REF_S / (0.5 * (before + speed.probe_time())))
        os.sched_setaffinity(0, cpus)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_LIMIT_S - (time.perf_counter() - start), check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    ops = report["ops"]
    failed = sum(1 for _, ok, _ in ops if not ok)
    samples = {"wall_s": report["walls"], "setup_s": setups,
               "raw_wall_s": report["raw_walls"], "raw_setup_s": raw_setups}
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {"wall_s": statistics.median(report["walls"]),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": report["peak_rss_mb"],
                   "ops_passed_frac": (len(ops) - failed) / len(ops)}
    if set(metrics) != set(units):
        sys.exit(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    env_record["versions"] = report["versions"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(env_record))
    for op, ok, detail in ops:
        if not ok:
            print(f"FAILED {op}: {detail}")
    print(f"ops attempted {len(ops)}, failed {failed}, ops_failed_frac = {failed / len(ops):.6g}")
    for name in ("raw_wall_s", "raw_setup_s"):
        if samples[name]:
            print(f"{name} (uncorrected): median {statistics.median(samples[name]):.6g} s")
    for name, unit in units.items():
        n = f"  (median of {len(samples[name])})" if samples.get(name) else ""
        print(f"{name:45s} {metrics[name]:>16.6g} {unit}{n}")

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}
    details = dict(result, env=env_record, samples=samples, ops=ops,
                   traced_walls=report["traced_walls"],
                   layer_samples=report.get("layer_samples"), traced_sites=report.get("traced_sites"))
    (ROOT / ".perfbench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(details, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
