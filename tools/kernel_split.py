"""Split the method-of-steps kernel's time into stages, one workload pass each.

    python3 tools/kernel_split.py [CHECKOUT] [--seed N]

CHECKOUT (default: the one holding this file) puts its `src` and
`perfbench` first on sys.path.  For each benchmark workload it empties the
kernel's stored resume run, makes one pass in a temporary SHORTLINK_OUTDIR
and prints the seconds in `dde._method_of_steps` (kernel), `dde._rk4_steps`
(RK4 arithmetic) and the kernel's front end `dde.run_inputs` (pulse
sampling; `dde.eval_pulse` in a checkout that has no front end), the
kernel's other time (rest), its runs, blocks and RK4 row-steps.  The three
functions are wrapped from outside, as perfbench's tracer wraps functions,
so a parent checkout can be measured too; each wrapper's cost lands in its
own stage.  They are wrapped where `dde` binds them, so `evolve_ww`'s own
sampling stays out of the split.
A run's blocks are its longest chain of `_rk4_steps` calls, each starting
from the value the one before ended on: every row not at rest is stepped
in every block.

A last line splits one more oracle-overlay pass between the two threads of
each `evolve_ww` call: the seconds the calling thread waits on the worker
(its `started` and `done` gets), the seconds the worker spends in `np.exp`,
and the calling thread's other time in the call (rest).  When rest exceeds
exp the calling thread bounds the pass, and waiting grows as the worker
does.  `cli.evolve_ww` is wrapped, and `ww` sees `queue` and `np` through
shims, so a parent checkout can be measured too.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

COLUMNS = ("kernel_s", "rk4_s", "sampling_s", "rest_s", "runs", "blocks", "row_steps")
ORACLE_COLUMNS = ("wait_s", "exp_s", "rest_s")


def _timed(s, stage, fn, *args, **kwargs):
    t0 = perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        s[stage] += perf_counter() - t0


def split(dde, run_pass) -> dict:
    """COLUMNS of the kernel's work during run_pass()."""
    s = dict.fromkeys(COLUMNS, 0)
    chains = {}  # last value of a chain of RK4 calls -> its length
    front = "run_inputs" if hasattr(dde, "run_inputs") else "eval_pulse"
    kernel, rk4, sample = dde._method_of_steps, dde._rk4_steps, getattr(dde, front)

    def timed_kernel(*args):
        chains.clear()
        try:
            return _timed(s, "kernel_s", kernel, *args)
        finally:
            s["runs"] += 1
            s["blocks"] += max(chains.values(), default=0)

    def timed_rk4(y, a, *rest):
        out = _timed(s, "rk4_s", rk4, y, a, *rest)
        s["row_steps"] += len(a) - 1
        chains[out[-1]] = chains.pop(y, 0) + 1
        return out

    dde._method_of_steps, dde._rk4_steps = timed_kernel, timed_rk4
    setattr(dde, front, lambda *args: _timed(s, "sampling_s", sample, *args))
    try:
        run_pass()
    finally:
        dde._method_of_steps, dde._rk4_steps = kernel, rk4
        setattr(dde, front, sample)
    s["rest_s"] = s["kernel_s"] - s["rk4_s"] - s["sampling_s"]
    return s


class _Shim:
    """A module as `ww` sees it, with the given names replaced."""

    def __init__(self, module, **replaced):
        self.__dict__.update(replaced, _module=module)

    def __getattr__(self, name):
        return getattr(self._module, name)


def oracle_split(cli, ww, run_pass) -> dict:
    """ORACLE_COLUMNS of the oracle's calls during run_pass()."""
    s = dict.fromkeys(ORACLE_COLUMNS, 0.0)
    callers = set()  # threads inside a cli.evolve_ww call
    evolve, np, queue = cli.evolve_ww, ww.np, ww.queue

    class Queue:
        def __init__(self):
            self._q = queue.SimpleQueue()
            self.put = self._q.put

        def get(self):
            if threading.get_ident() in callers:
                return _timed(s, "wait_s", self._q.get)
            return self._q.get()  # the worker taking its next argument

    def timed_evolve(*args, **kwargs):
        callers.add(threading.get_ident())
        try:
            return _timed(s, "rest_s", evolve, *args, **kwargs)
        finally:
            callers.discard(threading.get_ident())

    cli.evolve_ww = timed_evolve
    ww.np = _Shim(np, exp=lambda *args, **kwargs: _timed(s, "exp_s", np.exp, *args, **kwargs))
    ww.queue = _Shim(queue, SimpleQueue=Queue)
    try:
        run_pass()
    finally:
        cli.evolve_ww, ww.np, ww.queue = evolve, np, queue
    s["rest_s"] -= s["wait_s"]
    return s


def row(name, s, columns) -> str:
    """One printed line: name, then each column (3 decimals for seconds)."""
    return f"{name:16s}" + "".join(f"{s[c]:12.3f}" if c.endswith("_s") else f"{s[c]:12d}"
                                   for c in columns)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from shortlink import cli, dde, ww

    def in_tmp(fn, *args):
        with tempfile.TemporaryDirectory(prefix="kernel_split-") as out:
            os.environ["SHORTLINK_OUTDIR"] = out
            cwd = os.getcwd()
            os.chdir(out)
            try:
                return fn(*args)
            finally:
                os.chdir(cwd)

    print(f"{'workload':16s}" + "".join(f"{c:>12s}" for c in COLUMNS))
    for name, cls in workloads.WORKLOADS.items():
        dde._last.clear()
        print(row(name, in_tmp(split, dde, cls(args.seed).run_pass), COLUMNS), flush=True)
    overlay = workloads.WORKLOADS["oracle-overlay"](args.seed)
    print(f"{'oracle':16s}" + "".join(f"{c:>12s}" for c in ORACLE_COLUMNS))
    print(row("oracle-overlay", in_tmp(oracle_split, cli, ww, overlay.run_pass), ORACLE_COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
