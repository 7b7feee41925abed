"""Deterministic CSV/JSON writers for figure-reproduction datasets.

CSV files carry `#`-prefixed metadata lines (parameters, tool version)
followed by a single header line; floats are rendered with 12 significant
digits so re-runs produce byte-identical output.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

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

    A float64 ndarray row becomes Python floats, and Python floats are
    formatted inline: the same text as `fmt`, without a call or numpy's
    dispatch per value.  Any other type (np.float32, np.bool_, ...) goes
    through `fmt`, which renders it differently from its `.tolist()`.
    """
    p = resolve_output(path)
    lines = []
    for key in (meta or {}):
        lines.append(f"# {key} = {fmt(meta[key])}")
    lines.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} != {len(columns)} columns")
        if type(row) is np.ndarray and row.dtype == np.float64:
            row = row.tolist()
        lines.append(",".join([f"{v:.12g}" if type(v) is float else fmt(v) for v in row]))
    p.write_text("\n".join(lines) + "\n")
    return p


def write_json(path, obj) -> Path:
    """Write a JSON document with sorted keys (deterministic bytes)."""
    p = resolve_output(path)
    p.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return p
