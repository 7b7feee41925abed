"""Compare what two checkouts of shortlink write, byte for byte.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout roots (each with `src/shortlink`,
`perfbench/` and `demos/`).  For each checkout it runs every command in
COMMANDS, every script in DEMOS, and one pass of each benchmark workload
at seeds 0 and 3, driven through that checkout's `perfbench/workloads.py`
(imported, never written).  Each run is a fresh interpreter with the
checkout's `src` first on PYTHONPATH and its own empty SHORTLINK_OUTDIR,
which is also its working directory.

It prints every written file, exit code, stdout or stderr that differs
(in stdout and stderr the run's output directory reads `<outdir>`, a
checkout path `<checkout>` and a time a demo prints `<time> s`) and exits
1 on any difference.  A difference in a `--ww` command is labelled
host-dependent: the mode-resolved oracle's last printed digit may differ
between hosts, though not between runs on one host (README, "Known
limitation").  Runs go one at a time; the two checkouts take about two
minutes together on a 2-core host.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# CLI argument lists; the default `scan` and `spectrum` are the costliest
COMMANDS = [
    ["scan"],
    ["scan", "--loss", "--grid", "0.1,0.2,0.5"],
    ["scan", "--grid", "0.2,1.0", "--ww", "--n-modes", "41"],
    ["scan", "--grid", "0.2,120", "--protocols", "czkm"],
    ["scan", "--grid", "nan,-1"],
    ["scan", "--grid", "nan,-1", "--protocols", "czkm"],
    ["scan", "--protocols", "bogus"],
    ["scan", "--grid", "inf", "--protocols", "swap"],
    ["scan", "--grid", "0.2", "--protocols", "czkm", "--steps-per-tau", "0"],
    ["scan", "--loss", "--grid", "0.2", "--protocols", "czkm,bogus"],
    ["scan", "--protocols", "swap,czkm", "--grid", "0.5,1.0", "--kappa-tau", "0.3"],
    ["scan", "--grid", "nan,0.2", "--protocols", "swap", "--ww", "--n-modes", "41"],
    *[["scan", "--grid", "0.2", "--protocols", "czkm", "--ww", *bad]
      for bad in (("--n-modes", "2"), ("--delta-fsr", "nan"), ("--steps-per-tau", "0"))],
    ["spectrum", "--gamma-tau", "0.15"],
    ["spectrum", "--gamma-tau", "0.15", "--format", "json"],
    ["spectrum", "--gamma-tau", "0.15", "--delta-steps", "5", "--omega-steps", "101",
     "--format", "json"],
    ["spectrum", "--gamma-tau", "0.15", "--delta-steps", "3", "--omega-steps", "51"],
    ["spectrum", "--gamma-tau", "0.15", "--delta-steps", "3", "--omega-steps", "51",
     "--format", "json"],
    ["spectrum", "--gamma-tau", "0.15", "--delta-fsr", "-2.5", "--delta-steps", "4",
     "--omega-steps", "33"],
    ["spectrum", "--gamma-tau", "0.15", "--broadening", "0", "--delta-steps", "3",
     "--omega-steps", "51"],
    ["spectrum", "--gamma-tau", "0", "--delta-steps", "2", "--omega-steps", "11"],  # bare ladder
    ["spectrum", "--gamma-tau", "0.15", "--delta-steps", "2", "--omega-steps", "11",
     "--delta-fsr", "-inf"],
    ["spectrum", "--gamma-tau", "0.15", "--delta-steps", "2", "--omega-steps", "11",
     "--broadening", "-inf"],
    ["simulate", "--gamma-tau", "0.1", "--emitters", "2", "--ww"],
    ["simulate", "--gamma-tau", "0.1", "--ww", "--delta-fsr", "50.3"],
    # a 1-mode ladder; a run ending mid-block (4 812 oracle steps); a t_end
    # off the base grid, whose oracle grid must end on the base grid's node;
    # a one-block run (10 oracle steps), so no next block's rows are made
    ["simulate", "--gamma-tau", "0.1", "--ww", "--n-modes", "1"],
    ["simulate", "--gamma-tau", "0.1", "--emitters", "2", "--ww", "--t-end", "2.005"],
    ["simulate", "--gamma-tau", "0.1", "--ww", "--t-end", "0.0501"],
    ["simulate", "--gamma-tau", "0.1", "--ww", "--n-modes", "3", "--t-end", "0.05"],
    ["simulate", "--gamma-tau", "3000", "--t-end", "3", "--delta-fsr", "0"],
    ["simulate", "--gamma-tau", "0.1", "--t-end", "1e-12"],
    # 40 000 steps, 200 blocks of per-block coefficient lists
    *[["simulate", "--gamma-tau", "0.1", "--emitters", em, "--t-end", "200"] for em in ("2", "1")],
    # the kernel's smallest blocks: P = 4 or 5 steps, runs ending mid-block
    *[["simulate", "--gamma-tau", "1.3", "--emitters", em, "--delta-fsr", d, "--t-end", "6.1",
       "--steps-per-tau", s] for em in ("1", "2") for d in ("50", "50.3") for s in ("4", "5")],
    *[["protocol", kind, "--gamma-tau", "0.5", "--t", "6.3", "--steps-per-tau", s]
      for kind in ("swap", "stirap", "czkm") for s in ("4", "5")],
    ["protocol", "swap", "--gamma-tau", "0.5", "--optimize", "--steps-per-tau", "5"],
    *[["simulate", "--gamma-tau", "1.3", "--emitters", em, "--delta-fsr", d, "--format", f]
      for em in ("1", "2") for d in ("50", "50.3") for f in ("csv", "json")],
    ["protocol", "swap", "--gamma-tau", "0.2", "--scan-t"],
    ["protocol", "swap", "--gamma-tau", "0.2", "--scan-t", "--t-min", "2", "--t-max", "4"],
    ["protocol", "stirap", "--gamma-tau", "0.2", "--scan-t"],
    ["protocol", "swap", "--gamma-tau", "0.2", "--optimize"],
    ["protocol", "swap", "--gamma-tau", "20", "--optimize"],
    ["protocol", "stirap", "--gamma-tau", "0.2", "--optimize", "--kappa-tau", "0.01"],
    ["protocol", "czkm", "--gamma-tau", "0.2", "--t", "30"],
    ["protocol", "czkm", "--gamma-tau", "1", "--optimize"],
    ["protocol", "czkm", "--gamma-tau", "0.2", "--t", "9", "--kappa-tau", "0.2"],
    ["protocol", "swap", "--gamma-tau", "0.2", "--t", "3", "--kappa-tau", "0.5"],
    ["protocol", "swap", "--gamma-tau", "0.2", "--t", "1e-12"],
    *[["protocol", "swap", "--gamma-tau", "0.2", f"--t={bad}"] for bad in ("nan", "inf")],
]
DEMOS = ["echo_dynamics.py", "loss_comparison.py", "oracle_crosscheck.py",
         "protocol_benchmark.py", "spectroscopy.py", "wavepacket_shaping.py"]
WORKLOADS = ["scan-default", "oracle-overlay", "crosscheck"]
SEEDS = [0, 3]
TIMING = re.compile(r"\b\d+\.\d+ s\b")  # a demo's printed wall time, e.g. "2.99 s"

RUN_CLI = "import sys; from shortlink import cli; sys.exit(cli.main(sys.argv[1:]))"
# one pass of a workload; its return value (exit code and, for crosscheck,
# every series and CZKM number) goes to stdout as exact reprs
RUN_WORKLOAD = ("import sys, workloads; "
                "print(repr(workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).run_pass()))")


def jobs():
    """(label, interpreter arguments, kind: "cli", "demo" or "workload") per run;
    `<checkout>` in an argument stands for the checkout root."""
    out = [(" ".join(argv), ["-c", RUN_CLI, *argv], "cli") for argv in COMMANDS]
    out += [(f"demo {d}", [f"<checkout>/demos/{d}"], "demo") for d in DEMOS]
    out += [(f"workload {w} --seed {s}", ["-c", RUN_WORKLOAD, w, str(s)], "workload")
            for s in SEEDS for w in WORKLOADS]
    return out


def run(checkout: Path, args, kind: str, outdir: Path):
    """(exit code, stdout, stderr, {file name: bytes}) of one run in a fresh process."""
    outdir.mkdir(parents=True)
    env = dict(os.environ, SHORTLINK_OUTDIR=str(outdir))
    paths = [str(checkout / "src")] + ([str(checkout / "perfbench")] if kind == "workload" else [])
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    args = [a.replace("<checkout>", str(checkout)) for a in args]
    proc = subprocess.run([sys.executable, *args], cwd=outdir, env=env,
                          capture_output=True, text=True, timeout=900)
    files = {str(f.relative_to(outdir)): f.read_bytes()
             for f in sorted(outdir.rglob("*")) if f.is_file()}

    def clean(text):
        text = text.replace(str(outdir), "<outdir>").replace(str(checkout), "<checkout>")
        return TIMING.sub("<time> s", text) if kind == "demo" else text
    return proc.returncode, clean(proc.stdout), clean(proc.stderr), files


def first_difference(a: bytes, b: bytes) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x[:120]!r} vs {y[:120]!r}"
    return f"{len(la)} vs {len(lb)} lines"


def differences(a, b):
    """Lines naming each part of two runs' results that differs."""
    (rc_a, out_a, err_a, files_a), (rc_b, out_b, err_b, files_b) = a, b
    lines = []
    if rc_a != rc_b:
        lines.append(f"exit code {rc_a} vs {rc_b}")
    for name, x, y in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
        if x != y:
            lines.append(f"{name}: {first_difference(x.encode(), y.encode())}")
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_a or name not in files_b:
            lines.append(f"file {name} written by {'change' if name in files_b else 'parent'} only")
        elif files_a[name] != files_b[name]:
            lines.append(f"file {name}: {first_difference(files_a[name], files_b[name])}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    roots = [args.parent.resolve(), args.change.resolve()]
    for root in roots:
        if not (root / "src" / "shortlink" / "cli.py").is_file():
            sys.exit(f"{root} is not a shortlink checkout (no src/shortlink/cli.py)")

    n_diff = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        for i, (label, run_args, kind) in enumerate(jobs()):
            results = [run(root, run_args, kind, Path(tmp) / side / str(i))
                       for root, side in zip(roots, ("parent", "change"))]
            lines = differences(*results)
            tag = " (host-dependent: --ww)" if "--ww" in run_args else ""
            print(f"{'DIFFERS' if lines else 'same   '} [exit {results[1][0]}] {label}{tag}",
                  flush=True)
            for line in lines:
                print(f"    {line}")
            n_diff += bool(lines)
    print(f"{n_diff} of {len(jobs())} runs differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
