import math

import numpy as np
import pytest

from shortlink.io import write_csv


def _reference_fmt(x) -> str:
    """io.fmt as first written; every CSV value went through it."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _reference_csv(columns, rows, meta):
    """write_csv's text as first written: one fmt call per value."""
    lines = [f"# {k} = {_reference_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(columns))
    lines += [",".join(_reference_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1 / 3, 123456.789e-20]


@pytest.mark.parametrize("rows", [
    np.array([[0.1, 1 / 3, -0.0], [math.nan, math.inf, 5e-324], [1e20, -2.5e-7, 7.0]]),
    [tuple(np.float64(v) for v in SPECIALS[i:i + 3]) for i in range(0, 9, 3)],
    [tuple(SPECIALS[i:i + 3]) for i in range(0, 9, 3)],
    [(3, np.int64(-4), True), (np.bool_(True), np.bool_(False), False),
     (np.float32(0.1), np.float32(math.nan), np.float32(1e-3))],
    np.array([[0.1, 2.0, -1e-8], [math.inf, 3.5, 1 / 7]], dtype=np.float32),
    np.array([[True, False, True]]),
    np.array([[1, -2, 3]]),
    [("swap", 0.5, "error: gamma0 must be finite, got nan"), ("a,b", -0.0, "")],
    [np.array([0.25, np.nan, 1e-300]), (0.5, np.float64(0.5), np.float32(0.5))],
    # rows of Python floats take the %.12g template (a list of such tuples
    # all at once); one other cell sends a row to fmt, where %.12g would
    # print 10**12 as 1e+12 and True as 1
    [(math.inf, math.nan, -0.0), [1e12, 5e-324, -math.inf], (True, 0.5, 0.25),
     (0.5, 10**12, 0.25), (0.5, 0.25, np.float32(0.1)), (math.nan, "x", -0.0),
     (np.float64(-0.0), 0.5, math.inf)],
    [(0.5, 0.25, 1e-300), (0.5, 10**12, 0.25), (True, -0.0, math.nan)],
], ids=["float64-array", "np-float64-tuples", "python-floats", "ints-bools-float32",
        "float32-array", "bool-array", "int-array", "strings", "mixed-rows",
        "template-and-odd-cells", "float-tuples-and-odd-cells"])
def test_bytes_match_reference_formatting(tmp_path, rows, monkeypatch):
    monkeypatch.delenv("SHORTLINK_OUTDIR", raising=False)
    columns = ["a", "b", "c"]
    meta = {"tool": "shortlink", "gamma_tau": 0.15, "flag": True, "n": np.int64(3)}
    path = write_csv(tmp_path / "t.csv", columns, rows, meta)
    assert path.read_text() == _reference_csv(columns, rows, meta)


def test_row_width_error(tmp_path):
    with pytest.raises(ValueError, match=r"^row width 2 != 3 columns$"):
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^row width 4 != 3 columns$"):
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0)])
