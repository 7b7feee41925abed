"""Deterministic CSV/JSON writers for figure-reproduction datasets.

CSV files carry `#`-prefixed metadata lines (parameters, tool version)
followed by a single header line; floats are rendered with 12 significant
digits so re-runs produce byte-identical output.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

OUTPUT_DIR_ENV = "SHORTLINK_OUTDIR"


def fmt(x) -> str:
    """Canonical scalar rendering: 12 significant digits for floats."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def resolve_output(path) -> Path:
    """Resolve a file path against the output-directory env var.

    Absolute paths pass through; relative paths land in $SHORTLINK_OUTDIR
    (or the working directory when unset).  Parent directories are created.
    """
    p = Path(path)
    if not p.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV, "")
        if base:
            p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def write_csv(path, columns, rows, meta=None) -> Path:
    """Write rows (iterable of sequences) with metadata comments and header.

    A list of tuples of Python floats is formatted by one `%.12g` template
    in one pass, the text `fmt` gives each value.  Other rows go through
    `fmt` value by value: `%.12g` would print 10**12 as 1e+12 and True as 1.
    """
    p = resolve_output(path)
    lines = []
    for key in (meta or {}):
        lines.append(f"# {key} = {fmt(meta[key])}")
    lines.append(",".join(columns))
    width = len(columns)
    if (type(rows) is list and set(map(type, rows)) <= {tuple} and set(map(len, rows)) <= {width}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {float}):
        lines += map(",".join(["%.12g"] * width).__mod__, rows)  # no Python code per row
    else:
        for row in rows:
            if len(row) != width:
                raise ValueError(f"row width {len(row)} != {width} columns")
            lines.append(",".join([fmt(v) for v in row]))
    p.write_text("\n".join(lines) + "\n")
    return p


def write_json(path, obj) -> Path:
    """Write a JSON document with sorted keys (deterministic bytes)."""
    p = resolve_output(path)
    p.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return p
