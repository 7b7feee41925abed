import csv
import math
from io import StringIO

import numpy as np
import pytest

from shortlink import io
from shortlink.io import write_csv


def _reference_fmt(x) -> str:
    """io.fmt as first written; every CSV value went through it."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _reference_row(row) -> str:
    """One fmt call per value, the fields joined and quoted by csv.writer's default dialect."""
    buf = StringIO()
    csv.writer(buf).writerow([_reference_fmt(v) for v in row])
    return buf.getvalue()[:-2]  # without the dialect's CR LF


def _reference_csv(columns, rows, meta):
    """write_csv's text: as first written, but with csv.writer's quoting."""
    lines = [f"# {k} = {_reference_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(columns))
    lines += [_reference_row(row) for row in rows]
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


N = io._CHUNK  # rows the writer formats at a time


def _lines(path):
    return path.read_text().splitlines(keepends=True)


def _rows_then_raise(n):
    yield from ((float(i), 0.5, -0.0) for i in range(n))
    raise RuntimeError("row source failed")


@pytest.mark.parametrize("existing", [None, "# old\na,b,c\n1,2,3\n"])
@pytest.mark.parametrize("rows, error, match", [
    (lambda: _rows_then_raise(2 * N + 7), RuntimeError, "^row source failed$"),
    (lambda: [(0.5, 0.25, 1.0)] * (N + 3) + [(0.5, 0.25)] + [(1.0, 2.0, 3.0)] * 5,
     ValueError, r"^row width 2 != 3 columns$"),
    (lambda: np.zeros((2 * N + 1, 2)), ValueError, r"^row width 2 != 3 columns$"),
], ids=["generator-raises", "width-error-in-later-chunk", "narrow-float64-array"])
def test_failure_leaves_no_new_or_altered_file(tmp_path, monkeypatch, existing, rows, error, match):
    monkeypatch.delenv("SHORTLINK_OUTDIR", raising=False)
    path = tmp_path / "t.csv"
    if existing is not None:
        path.write_text(existing)
    with pytest.raises(error, match=match):
        write_csv(path, ["a", "b", "c"], rows(), {"tool": "shortlink"})
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == existing


def test_chunks_of_every_kind_match_reference(tmp_path, monkeypatch):
    # one chunk each of: Python floats (template), str and float columns
    # (template), one odd cell among floats (fmt), float64 values (fmt),
    # then a short tail of Python floats; streamed from a generator
    monkeypatch.delenv("SHORTLINK_OUTDIR", raising=False)
    rng = np.random.default_rng(5)
    values = (rng.standard_normal(3 * N) * 10.0 ** rng.integers(-300, 300, 3 * N)).tolist()
    floats = [tuple(values[i:i + 3]) for i in range(0, 3 * N, 3)] + [tuple(SPECIALS[:3])]
    labelled = [("%.12g" % a, b, "note") for a, b, _ in floats[:N]]
    odd = floats[:N - 1] + [(0.5, 10**12, True)]
    numpy_floats = [tuple(map(np.float64, row)) for row in floats[:N]]
    rows = floats[:N] + labelled + odd + numpy_floats + floats[N:]
    columns, meta = ["a", "b", "c"], {"tool": "shortlink"}
    path = write_csv(tmp_path / "t.csv", columns, iter(rows), meta)
    # compared as lists of lines: pytest's diff of two long strings takes minutes
    assert _lines(path) == _reference_csv(columns, rows, meta).splitlines(keepends=True)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_arrays_over_several_chunks_match_reference(tmp_path, monkeypatch, dtype):
    # float64 takes the template through .tolist(); float32 stays on fmt,
    # where %.12g of a widened float32 0.1 would print 0.100000001490
    monkeypatch.delenv("SHORTLINK_OUTDIR", raising=False)
    rng = np.random.default_rng(6)
    rows = (rng.standard_normal((2 * N + 5, 3)) * 10.0 ** rng.integers(-30, 30, (2 * N + 5, 3)))
    rows[:3] = [[math.nan, math.inf, -math.inf], [-0.0, 0.0, 0.1], [1 / 3, 123456.789e-20, 7.0]]
    rows = rows.astype(dtype)
    path = write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows, {})
    assert _lines(path) == _reference_csv(["a", "b", "c"], rows, {}).splitlines(keepends=True)


def test_str_cells_read_back_through_csv_reader(tmp_path, monkeypatch):
    # str cells that need quotes in one chunk only, on the template path
    # (str and float columns) and on fmt's (an int cell); csv.reader must
    # give back every row's fields, notes with commas, quotes, CR and LF
    # intact, and a column whose text needs none stays unquoted
    monkeypatch.delenv("SHORTLINK_OUTDIR", raising=False)
    monkeypatch.setattr(io, "_CHUNK", 4)
    notes = ["error: grid must be finite and > 0, got nan", 'said "no"', "two\nlines",
             "cr\r", "crlf\r\n", "", "plain", "a,b\"c"]
    rows = [("swap", 0.5 * i, note) for i, note in enumerate(notes)]
    rows += [("stirap", i, note) for i, note in enumerate(reversed(notes))]
    rows += [("czkm", 0.25, "fine")] * 4
    columns = ["protocol", "x", "note"]
    path = write_csv(tmp_path / "t.csv", columns, rows, {"tool": "shortlink"})
    text = path.read_bytes().decode()
    assert text == _reference_csv(columns, rows, {"tool": "shortlink"})
    assert text.endswith('nan"\n' + "czkm,0.25,fine\n" * 4)
    with open(path, newline="") as fh:
        read = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert read == [columns] + [[p, _reference_fmt(x), note] for p, x, note in rows]
