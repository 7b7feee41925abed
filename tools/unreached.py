"""Print every statement of src/shortlink that no known input executes.

    python3 tools/unreached.py

It covers the checkout it sits in.  With `sys.settrace` (and
`threading.settrace` for the tests' threads) installed before shortlink
is imported, it runs, in one process:

- the tier-1 suite (`pytest tests`);
- one pass of each benchmark workload in `perfbench/workloads.py` at its
  default seed;
- every CLI command in `tools/compare_outputs.py`'s COMMANDS.

Outputs go to a temporary SHORTLINK_OUTDIR.  It then prints, per module,
`path:line: source` for each statement line that none of them executed,
and the count.  A statement counts as a line that starts an `ast`
statement and has bytecode; code that tests reach only through a
subprocess is not seen.  A code object stops being traced once every
statement of it has run, so the hot loops run at almost full speed; a
run takes about 1.5 minutes on a 2-core host.
"""

from __future__ import annotations

import ast
import contextlib
import os
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


def run_inputs() -> None:
    """Everything whose coverage counts, each CLI run in a fresh output directory."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import pytest
    with contextlib.redirect_stdout(sys.stderr):
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    import compare_outputs
    import workloads
    from shortlink import cli

    runs = [(f"workload {name}", cls(workloads.DEFAULT_SEED).run_pass)
            for name, cls in workloads.WORKLOADS.items()]
    runs += [(" ".join(argv), lambda argv=argv: cli.main(list(argv)))
             for argv in compare_outputs.COMMANDS]
    cwd = os.getcwd()
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


def main() -> int:
    files = sorted(SRC.glob("*.py"))
    tracer = Tracer(files)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run_inputs()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for f in files:
        seen = tracer.seen[str(f)]
        missed = [(n, s) for n, s in tracer.statements[str(f)].items() if n not in seen]
        total += len(missed)
        for n, s in missed:
            print(f"{f.relative_to(ROOT)}:{n}: {s}")
    print(f"{total} statement(s) unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
