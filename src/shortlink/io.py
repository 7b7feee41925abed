"""Deterministic CSV/JSON writers for figure-reproduction datasets.

CSV files carry `#`-prefixed metadata lines (parameters, tool version)
followed by a single header line; floats are rendered with 12 significant
digits so re-runs produce byte-identical output.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from pathlib import Path

import numpy as np

OUTPUT_DIR_ENV = "SHORTLINK_OUTDIR"
_CHUNK = 1024  # rows formatted and written at a time
# csv.writer's default dialect quotes a field holding one of these
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


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
    """Write rows (any iterable of sequences) with metadata comments and header.

    Rows are formatted and written `_CHUNK` at a time, so a generator's rows
    are never all held.  A chunk whose columns are each all `float` or all
    `str` takes one `%.12g`/`%s` template (a float64 ndarray is read as Python
    floats); any other goes through `fmt` value by value, since `%.12g` would
    print 10**12 as 1e+12, True as 1 and a float32 0.1 as 0.100000001490.
    A `str` cell holding a comma, quote, CR or LF is quoted as `csv.writer`
    quotes it; a column is searched once per chunk, as one joined text.
    The text replaces `path` only once every row is written, so a failure at
    any point leaves no new or altered file.
    """
    head = [f"# {key} = {fmt(meta[key])}" for key in (meta or {})]
    head.append(",".join(columns))
    p = resolve_output(path)
    tmp = p.with_name(f"{p.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write("\n".join(head) + "\n")
            for chunk in _chunks(rows):
                fh.write(_chunk_text(chunk, len(columns)))
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return p


def _chunks(rows):
    """Lists of at most `_CHUNK` rows; a float64 ndarray's as Python floats."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        return (rows[i:i + _CHUNK].tolist() for i in range(0, len(rows), _CHUNK))
    it = iter(rows)
    return iter(lambda: list(itertools.islice(it, _CHUNK)), [])


def _chunk_text(chunk, width) -> str:
    if set(map(len, chunk)) != {width}:
        bad = next(n for n in map(len, chunk) if n != width)
        raise ValueError(f"row width {bad} != {width} columns")
    cols = list(zip(*chunk))
    kinds = [set(map(type, col)) for col in cols]
    # one search of the joined text of each column that holds str cells
    quote = [i for i, k in enumerate(kinds)
             if str in k and _NEEDS_QUOTES("".join(map(str, cols[i])))]
    if quote:
        for i in quote:
            cols[i] = [_quoted(v) if type(v) is str else v for v in cols[i]]
        chunk = list(zip(*cols))
    if all(k == {float} or k == {str} for k in kinds):
        line = ",".join("%.12g" if k == {float} else "%s" for k in kinds) + "\n"
        return "".join(map(line.__mod__, map(tuple, chunk)))  # no Python code per row
    return "".join(",".join([fmt(v) for v in row]) + "\n" for row in chunk)


def _quoted(s: str) -> str:
    """s as csv.writer's default dialect writes it."""
    return '"' + s.replace('"', '""') + '"' if _NEEDS_QUOTES(s) else s


def write_json(path, obj) -> Path:
    """Write a JSON document with sorted keys (deterministic bytes)."""
    p = resolve_output(path)
    p.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return p
