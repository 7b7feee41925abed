"""Deterministic CSV/JSON writers for figure-reproduction datasets.

CSV files carry `#`-prefixed metadata lines (parameters, tool version)
followed by a single header line; floats are rendered with 12 significant
digits so re-runs produce byte-identical output.
"""

from __future__ import annotations

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
    """Write rows (iterable of sequences) with metadata comments and header."""
    p = resolve_output(path)
    lines = []
    for key in (meta or {}):
        lines.append(f"# {key} = {fmt(meta[key])}")
    lines.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} != {len(columns)} columns")
        lines.append(",".join(fmt(v) for v in row))
    p.write_text("\n".join(lines) + "\n")
    return p


def write_json(path, obj) -> Path:
    """Write a JSON document with sorted keys (deterministic bytes)."""
    p = resolve_output(path)
    p.write_text(json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n")
    return p


def _plain(obj):
    """Recursively convert numpy scalars/arrays to JSON-native values."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj
