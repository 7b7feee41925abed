"""Regenerate reference.json: default-seed outputs and per-layer counts.

    python3 perfbench/make_reference.py

Runs one traced pass of each workload at the default seed with the
checkout's `src/` and records the output digest that later runs at that
seed are compared with, plus the exact per-layer counts that check.py
compares with.  Regenerate only when a change is meant to alter results
or counts, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / ".perfbench_out" / "reference"


def main():
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["SHORTLINK_OUTDIR"] = str(OUTDIR)
    OUTDIR.mkdir(parents=True, exist_ok=True)
    import shortlink.cli  # noqa: F401
    ref = {"seed": workloads.DEFAULT_SEED, "outputs": {}, "counts": {}}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.DEFAULT_SEED)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = wl.run_pass()
        finally:
            tracer.uninstall()
        out = wl.outputs(OUTDIR, result)
        failed = [op for op in wl.check(out, None) if not op[1]]
        if failed:
            sys.exit(f"{name}: operations fail the gate, no reference written: {failed}")
        ref["outputs"][name] = wl.digest(out)
        layers = tracing.summarize(tracer.take(), wl.optimiser_points)
        ref["counts"][name] = {k: v for k, v in layers.items() if tracing.is_count(k)}
        print(name, json.dumps(ref["counts"][name]))
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
