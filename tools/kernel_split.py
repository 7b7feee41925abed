"""Split the method-of-steps kernel's time into stages, one workload pass each.

    python3 tools/kernel_split.py [CHECKOUT] [--seed N]

CHECKOUT (default: the one holding this file) puts its `src` and
`perfbench` first on sys.path.  For each benchmark workload it empties the
kernel's stored resume run, makes one pass in a temporary SHORTLINK_OUTDIR
and prints the seconds in `dde._method_of_steps` (kernel), `dde._rk4_steps`
(RK4 arithmetic) and `dde.eval_pulse` (pulse sampling), the kernel's other
time (rest), its runs, blocks and RK4 row-steps.  The three functions are
wrapped from outside, as perfbench's tracer wraps functions, so a parent
checkout can be measured too; each wrapper's cost lands in its own stage.
A run's blocks are its longest chain of `_rk4_steps` calls, each starting
from the value the one before ended on: every row not at rest is stepped
in every block.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

COLUMNS = ("kernel_s", "rk4_s", "sampling_s", "rest_s", "runs", "blocks", "row_steps")


def split(dde, run_pass) -> dict:
    """COLUMNS of the kernel's work during run_pass()."""
    s = dict.fromkeys(COLUMNS, 0)
    chains = {}  # last value of a chain of RK4 calls -> its length
    kernel, rk4, sample = dde._method_of_steps, dde._rk4_steps, dde.eval_pulse

    def timed(stage, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            s[stage] += perf_counter() - t0

    def timed_kernel(*args):
        chains.clear()
        try:
            return timed("kernel_s", kernel, *args)
        finally:
            s["runs"] += 1
            s["blocks"] += max(chains.values(), default=0)

    def timed_rk4(y, a, *rest):
        out = timed("rk4_s", rk4, y, a, *rest)
        s["row_steps"] += len(a) - 1
        chains[out[-1]] = chains.pop(y, 0) + 1
        return out

    dde._method_of_steps, dde._rk4_steps = timed_kernel, timed_rk4
    dde.eval_pulse = lambda *args: timed("sampling_s", sample, *args)
    try:
        run_pass()
    finally:
        dde._method_of_steps, dde._rk4_steps, dde.eval_pulse = kernel, rk4, sample
    s["rest_s"] = s["kernel_s"] - s["rk4_s"] - s["sampling_s"]
    return s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from shortlink import dde

    print(f"{'workload':16s}" + "".join(f"{c:>12s}" for c in COLUMNS))
    cwd = os.getcwd()
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix="kernel_split-") as out:
            os.environ["SHORTLINK_OUTDIR"] = out
            os.chdir(out)
            try:
                dde._last.clear()
                s = split(dde, cls(args.seed).run_pass)
            finally:
                os.chdir(cwd)
        print(f"{name:16s}" + "".join(f"{s[c]:12.3f}" if c.endswith("_s") else f"{s[c]:12d}"
                                      for c in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
