"""Run one workload in this (fresh) process and print its measurements.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS/OpenMP pools capped.  Untraced, it repeats passes while another pass
is expected to fit in --seconds (at least one) and reports every pass's
wall time, raw and corrected for the host's speed (see speed.py).  Traced,
it alternates untraced and traced passes (at least one of each), without
the speed probe, so the tracing overhead is measured in the same process.  Outputs
are checked after every pass, outside the timed region and with tracing
off.  Peak RSS is read after the first pass and before its check, so it
belongs to the program and not to the checks.  The last stdout line is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    outdir = Path(os.environ["SHORTLINK_OUTDIR"])
    src = Path(__file__).resolve().parent.parent / "src"
    import numpy
    import scipy
    import shortlink
    import shortlink.cli  # noqa: F401  (loads every shortlink module)

    if Path(shortlink.__file__).resolve().parent.parent != src:
        sys.exit(f"shortlink imported from {shortlink.__file__}, not from {src}")

    wl = workloads.WORKLOADS[args.workload](args.seed)
    ref = workloads.load_reference(wl.name, args.seed)
    tracer = tracing.Tracer()
    plan = [False, True] if args.trace else [False]  # traced?, in turn
    sl_cli = workloads.sl("cli")
    if sl_cli.main(wl.setup_argv) != 0:  # the first call: lazy set-up, untimed
        sys.exit("the workload's first call failed")

    walls = {False: [], True: []}
    layers, ops, sites, spans, raw_walls = [], [], [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        traced = plan[(len(walls[False]) + len(walls[True])) % len(plan)]
        for f in outdir.iterdir():  # no check may read an earlier pass's files
            f.unlink()
        if traced:
            sites = tracer.install()
        t0 = time.perf_counter()
        try:
            if args.trace:
                result = wl.run_pass()
                walls[traced].append(time.perf_counter() - t0)
            else:
                with speed.SpeedProbe() as probe:
                    result = wl.run_pass()
                walls[False].append(probe.corrected)
                raw_walls.append(probe.raw)
        finally:
            tracer.uninstall()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            spans = tracer.take()
            layers.append(tracing.summarize(spans, wl.optimiser_points))
        ops.extend(wl.check(wl.outputs(outdir, result), ref))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / (len(walls[False]) + len(walls[True]))
        if all(walls[t] for t in plan) and elapsed + per_pass > args.seconds:
            break
    if spans:
        tracing.dump(outdir.parent / f"spans-{wl.name}-seed{args.seed}.jsonl", spans)

    report = {
        "walls": walls[False],
        "raw_walls": raw_walls,
        "traced_walls": walls[True],
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "shortlink": shortlink.__version__},
    }
    if args.trace:
        report["layers"] = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        report["layers"]["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        report["layer_samples"] = layers
        report["traced_sites"] = sites
    print(json.dumps(report))


if __name__ == "__main__":
    main()
