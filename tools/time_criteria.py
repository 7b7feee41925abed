"""Time each acceptance criterion and a reduced `scan --ww`, parent against change.

    python3 tools/time_criteria.py PARENT CHANGE [--rounds 5]

PARENT and CHANGE are checkout roots (each with `src/shortlink` and
`tests/test_acceptance.py`).  Each timed item runs in a fresh interpreter
with the checkout's `src` first on PYTHONPATH and its own empty
SHORTLINK_OUTDIR, which is also its working directory:

- every `test_criterion_*` function that both checkouts'
  `tests/test_acceptance.py` define, called directly (no pytest) and timed
  around the call alone; a criterion that fails its assertion is timed to
  the failure and marked failed, which is how criteria 06 and 08 read today;
- `shortlink scan` with SCAN_ARGS (two couplings, SWAP and CZKM, each optimum
  re-run in the 401-mode oracle: 4 `evolve_ww` runs), timed around
  `cli.main`.

A round runs every item once on each side, one run at a time; the side that
goes first alternates from round to round.  It prints a line per item (each
side's median, the change against the parent, the rounds the change was
faster in) and then one JSON object with every time, which a
`BENCH_<n>.json` carries.  Five rounds take about 2.5 minutes on a 2-core
host.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCAN_ARGS = ["scan", "--grid", "0.5,1.0", "--protocols", "swap,czkm", "--ww"]
# the last stdout line of a timed run: {"s": seconds, "ok": passed}
RUN_CRITERION = """
import importlib.util, json, sys, time
spec = importlib.util.spec_from_file_location("test_acceptance", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
criterion = getattr(module, sys.argv[2])
t0 = time.perf_counter()
try:
    criterion()
    ok = True
except AssertionError:
    ok = False
print(json.dumps({"s": time.perf_counter() - t0, "ok": ok}))
"""
RUN_CLI = """
import json, sys, time
from shortlink import cli
t0 = time.perf_counter()
rc = cli.main(sys.argv[1:])
print(json.dumps({"s": time.perf_counter() - t0, "ok": rc == 0}))
"""


def criteria(root: Path):
    """Names of the criterion functions a checkout's acceptance tests define."""
    text = (root / "tests" / "test_acceptance.py").read_text()
    return [line[4:line.index("(")] for line in text.splitlines()
            if line.startswith("def test_criterion_")]


def items(roots):
    """(label, interpreter arguments) per timed item; `<checkout>` stands for the root."""
    names = [n for n in criteria(roots[1]) if n in criteria(roots[0])]
    out = [(n[len("test_"):], ["-c", RUN_CRITERION, "<checkout>/tests/test_acceptance.py", n])
           for n in names]
    out.append((" ".join(SCAN_ARGS), ["-c", RUN_CLI, *SCAN_ARGS]))
    return out


def timed(root: Path, args, outdir: Path):
    """{"s", "ok"} of one run in a fresh interpreter."""
    outdir.mkdir(parents=True)
    env = dict(os.environ, SHORTLINK_OUTDIR=str(outdir))
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    args = [a.replace("<checkout>", str(root)) for a in args]
    proc = subprocess.run([sys.executable, *args], cwd=outdir, env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode:
        sys.exit(f"{root}: {' '.join(args[2:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(parent, change):
    """Medians, quartiles and the pairwise count of one item's runs."""
    p_s, c_s = [r["s"] for r in parent], [r["s"] for r in change]
    pm, cm = statistics.median(p_s), statistics.median(c_s)
    q = statistics.quantiles(p_s, n=4) if len(p_s) > 1 else [pm, pm, pm]
    return {"parent_s": [round(x, 4) for x in p_s], "change_s": [round(x, 4) for x in c_s],
            "parent_median": round(pm, 4), "change_median": round(cm, 4),
            "parent_iqr": round(q[2] - q[0], 4),
            "change_vs_parent_median": f"{100.0 * (cm / pm - 1.0):+.2f}%",
            "change_faster_rounds": f"{sum(c < p for p, c in zip(p_s, c_s))} of {len(p_s)}",
            "passed": {"parent": all(r["ok"] for r in parent),
                       "change": all(r["ok"] for r in change)}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        sys.exit(f"--rounds must be >= 1, got {args.rounds}")
    roots = [args.parent.resolve(), args.change.resolve()]
    for root in roots:
        if not (root / "tests" / "test_acceptance.py").is_file():
            sys.exit(f"{root} is not a shortlink checkout (no tests/test_acceptance.py)")

    start = time.perf_counter()
    jobs = items(roots)
    runs = {label: ([], []) for label, _ in jobs}
    with tempfile.TemporaryDirectory(prefix="time_criteria-") as tmp:
        for k in range(args.rounds):
            for i, (label, run_args) in enumerate(jobs):
                for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                    out = Path(tmp) / f"{k}-{i}-{side}"
                    runs[label][side].append(timed(roots[side], run_args, out))
    result = {label: summary(*runs[label]) for label, _ in jobs}
    for label, r in result.items():
        failed = [side for side in ("parent", "change") if not r["passed"][side]]
        print(f"{label:50s} {r['parent_median']:8.3f} s -> {r['change_median']:8.3f} s "
              f"{r['change_vs_parent_median']:>8s}  faster in {r['change_faster_rounds']}"
              + (f"  (fails on {' and '.join(failed)})" if failed else ""))
    print(json.dumps({"command": "python3 tools/time_criteria.py PARENT CHANGE "
                                 f"--rounds {args.rounds}",
                      "rounds": args.rounds, "elapsed_s": round(time.perf_counter() - start, 1),
                      "items": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
