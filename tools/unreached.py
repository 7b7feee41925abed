"""Print every statement of src/shortlink that the product, and then the tests, leave unrun.

    python3 tools/unreached.py

It covers the checkout it sits in.  With `sys.settrace` (and
`threading.settrace` for the tests' threads) installed before shortlink
is imported, it runs, in one process, first the product runs:

- one pass of each benchmark workload in `perfbench/workloads.py` at its
  default seed;
- every CLI command in `tools/compare_outputs.py`'s COMMANDS;
- every demo script in its DEMOS, as `__main__`, its prints on stderr;

each in a fresh temporary SHORTLINK_OUTDIR, which is also its working
directory; both are restored before the tier-1 suite (`pytest tests`)
runs last.  It then prints two lists, per module `path:line: source` for
each statement line and the count: those the product runs left unrun,
then those still unrun after the tests too.  A statement the first list
names and the second does not is reached by the tests alone: an input
check, an error path, or code the product does not need.  A statement
counts as a line that starts an `ast` statement and has bytecode; code
that tests reach only through a subprocess is not seen.  A code object
stops being traced once every statement of it has run, so the hot loops
run at almost full speed; a run takes about 1.5 minutes on a 2-core host.
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shortlink"


def _code_lines(code):
    """Line numbers with bytecode in a code object and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path):
    """{line: source} of each statement start in a file that has bytecode."""
    text = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    src_lines = text.splitlines()
    return {n: src_lines[n - 1].strip()
            for n in sorted(starts & _code_lines(compile(text, str(path), "exec")))}


class Tracer:
    """Line events of the given files, with tracing dropped for code whose statements all ran."""

    def __init__(self, files):
        self.statements = {str(f): statements(f) for f in files}
        self.seen = {f: set() for f in self.statements}
        self.todo = {}  # code object -> its statement lines not yet run

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.statements:
            return None
        todo = self.todo.get(code)
        if todo is None:
            lines = {line for _, _, line in code.co_lines()}
            todo = self.todo[code] = ((lines & self.statements[code.co_filename].keys())
                                      - self.seen[code.co_filename])
        return self.local if todo else None

    def local(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self.seen[code.co_filename].add(frame.f_lineno)
            todo = self.todo[code]
            todo.discard(frame.f_lineno)
            if not todo:
                frame.f_trace_lines = False
        return self.local


def run_demo(name: str) -> int:
    """Run a demo script as __main__, its prints on stderr; 0 once it ends."""
    with contextlib.redirect_stdout(sys.stderr):
        runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    return 0


def run_product() -> None:
    """Every workload pass, CLI command and demo, each in a fresh output directory."""
    import compare_outputs
    import workloads
    from shortlink import cli

    runs = [(f"workload {name}", cls(workloads.DEFAULT_SEED).run_pass)
            for name, cls in workloads.WORKLOADS.items()]
    runs += [(" ".join(argv), lambda argv=argv: cli.main(list(argv)))
             for argv in compare_outputs.COMMANDS]
    runs += [(f"demo {name}", lambda name=name: run_demo(name)) for name in compare_outputs.DEMOS]
    cwd, outdir = os.getcwd(), os.environ.get("SHORTLINK_OUTDIR")
    try:
        for label, run in runs:
            with tempfile.TemporaryDirectory(prefix="unreached-") as out:
                os.environ["SHORTLINK_OUTDIR"] = out
                os.chdir(out)
                try:
                    rc = run()
                except SystemExit as exc:  # the CLI refuses some flag combinations this way
                    rc = exc.code
                finally:
                    os.chdir(cwd)
            print(f"exit {rc}: {label}", file=sys.stderr, flush=True)
    finally:
        if outdir is None:
            os.environ.pop("SHORTLINK_OUTDIR", None)
        else:
            os.environ["SHORTLINK_OUTDIR"] = outdir


def report(tracer: Tracer, files, seen, title: str) -> None:
    """Each statement of files not in seen ({file: lines}), then their count."""
    print(f"## unreached after {title}")
    total = 0
    for f in files:
        missed = [(n, s) for n, s in tracer.statements[str(f)].items() if n not in seen[str(f)]]
        total += len(missed)
        for n, s in missed:
            print(f"{f.relative_to(ROOT)}:{n}: {s}")
    print(f"{total} statement(s) unreached after {title}")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    files = sorted(SRC.glob("*.py"))
    tracer = Tracer(files)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run_product()
        product = {f: set(lines) for f, lines in tracer.seen.items()}
        import pytest
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report(tracer, files, product, "the product runs")
    print()
    report(tracer, files, tracer.seen, "the product runs and the tier-1 suite")
    return 0


if __name__ == "__main__":
    sys.exit(main())
