"""Where the method-of-steps kernel's memory goes, run by run and stage by stage.

    python3 tools/memory_split.py [CHECKOUT] [--seed N]

CHECKOUT (default: the one holding this file) puts its `src` and
`perfbench` first on sys.path.  In one fresh process the script prints:

- the process's ru_maxrss after each stage of one crosscheck pass at the
  seed, made as perfbench's worker makes its first pass (numpy, scipy and
  every shortlink module imported, then the workload's set-up call): the
  set-up, the spectrum command, the series draws and each CZKM point (its
  run and its closed form).  The stage ends are found by wrapping
  `cli.main` and `protocols.run_protocol` from outside, as perfbench's
  tracer wraps functions, so a parent checkout can be measured too;
- the bytes per step that tracemalloc traces for one cold 20 000-step run
  of a pair and of a lone emitter (sin2 coupling, gamma tau = 0.1, T = 100
  tau at 200 steps per tau), each after one untraced warm-up run: held is
  what is still allocated once the run has returned (its Trajectory and
  the kernel's stored run), peak the most allocated during the run.

Outputs go to a temporary SHORTLINK_OUTDIR, also the working directory.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def crosscheck_stages(cli, protocols, wl) -> list:
    """[(stage, ru_maxrss in MB once it ended)] of wl's set-up call and one pass."""
    marks = []
    if cli.main(wl.setup_argv) != 0:
        raise RuntimeError("the workload's set-up call failed")
    marks.append(("set-up", maxrss_mb()))
    main, run_protocol = cli.main, protocols.run_protocol
    pending = ["series draws"]  # the stage that the next CZKM run ends

    def spectrum(argv):
        try:
            return main(argv)
        finally:
            marks.append(("spectrum", maxrss_mb()))

    def czkm_point(spec, *args, **kwargs):
        marks.append((pending.pop(), maxrss_mb()))
        pending.append(f"czkm:{spec.gamma0:.6g}@{spec.duration:g}")
        return run_protocol(spec, *args, **kwargs)

    cli.main, protocols.run_protocol = spectrum, czkm_point
    try:
        wl.run_pass()
    finally:
        cli.main, protocols.run_protocol = main, run_protocol
    marks.append((pending.pop(), maxrss_mb()))
    return marks


def traced_run(dde, run) -> tuple:
    """(steps, bytes held after, peak bytes during) one cold run() under tracemalloc."""
    dde._last.clear()
    run()  # one-off allocations of a first call stay out of the trace
    dde._last.clear()
    tracemalloc.start()
    try:
        traj = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return traj.grid.n_steps, held, peak


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import scipy  # noqa: F401  (imported as the worker imports it)
    import workloads
    from shortlink import cli, core, dde, protocols

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="memory_split-") as out:
        os.environ["SHORTLINK_OUTDIR"] = out
        os.chdir(out)
        try:
            marks = crosscheck_stages(cli, protocols, workloads.WORKLOADS["crosscheck"](args.seed))
        finally:
            os.chdir(cwd)
    print(f"crosscheck seed {args.seed}: ru_maxrss (MB) after each stage")
    for stage, mb in marks:
        print(f"  {stage:16s}{mb:10.2f}")

    link, T = core.make_link(0.1, 1.0, 0.0), 100.0
    p, grid = core.sin2_pulse(0.1, T), core.make_grid(1.0, T, 200)
    runs = {"pair": lambda: dde.evolve_pair(link, p, p, (1.0, 0.0), grid),
            "lone": lambda: dde.evolve_single(link, p, 1.0, grid)}
    print("cold run, traced bytes per step:   held    peak")
    for name, run in runs.items():
        steps, held, peak = traced_run(dde, run)
        print(f"  {name} ({steps} steps){held / steps:18.1f}{peak / steps:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
