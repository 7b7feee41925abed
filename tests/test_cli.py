import csv
import hashlib
import importlib.util
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import pytest

import shortlink.protocols
from shortlink.cli import build_parser, main


def read_csv(path):
    """Read back a CSV written by io.write_csv: (meta, columns, float rows)."""
    meta = {}
    columns = None
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, columns or [], rows


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SHORTLINK_OUTDIR", str(tmp_path))
    return tmp_path


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_byte_identical_reruns(self, outdir):
        argv = ("simulate", "--gamma-tau", "0.3", "--t-end", "5",
                "--out", "a.csv")
        assert run(*argv) == 0
        first = (outdir / "a.csv").read_bytes()
        assert run(*argv) == 0
        assert (outdir / "a.csv").read_bytes() == first

    def test_decoupled_emitter_stays_excited(self, outdir):
        assert run("simulate", "--gamma-tau", "0", "--t-end", "3",
                   "--out", "flat.csv") == 0
        meta, cols, rows = read_csv(outdir / "flat.csv")
        pop1 = [r[cols.index("pop1")] for r in rows]
        assert max(abs(p - 1.0) for p in pop1) < 1e-12
        assert meta["gamma_tau"] == "0"

    def test_two_emitters_and_columns(self, outdir):
        assert run("simulate", "--gamma-tau", "0.5", "--t-end", "6",
                   "--emitters", "2", "--out", "pair.csv") == 0
        _, cols, rows = read_csv(outdir / "pair.csv")
        assert cols == ["t", "re_c1", "im_c1", "re_c2", "im_c2",
                        "pop1", "pop2", "n_photon", "dpop1_dt"]
        pop2 = [r[cols.index("pop2")] for r in rows]
        assert max(pop2) > 1e-3  # excitation actually crossed the link

    def test_ww_overlay_tracks_delay_model(self, outdir):
        assert run("simulate", "--gamma-tau", "0.2", "--t-end", "4",
                   "--emitters", "2", "--ww", "--n-modes", "81",
                   "--steps-per-tau", "400", "--out", "ww.csv") == 0
        _, cols, rows = read_csv(outdir / "ww.csv")
        i, j = cols.index("pop1"), cols.index("ww_pop1")
        dev = max(abs(r[i] - r[j]) for r in rows)
        assert dev < 2e-2

    def test_ww_overlay_off_the_base_grid(self, outdir):
        # t_end = 0.0501 rounds up to the base grid's 0.055; the oracle's
        # 12-fold finer grid ends there too, not at its own node 0.050417,
        # which once left it one row short of the delay model's 12
        for t_end in ("0.0501", "0.055"):
            assert run("simulate", "--gamma-tau", "0.1", "--ww", "--t-end", t_end,
                       "--out", f"{t_end}.csv") == 0
        _, cols, rows = read_csv(outdir / "0.0501.csv")
        assert len(rows) == 12 and rows[-1][0] == 0.055 and "ww_pop1" in cols
        assert (outdir / "0.0501.csv").read_bytes() == (outdir / "0.055.csv").read_bytes()

    def test_invalid_parameters_exit_1(self, outdir, capsys):
        assert run("simulate", "--gamma-tau", "-1", "--out", "x.csv") == 1
        assert "error:" in capsys.readouterr().err
        assert not (outdir / "x.csv").exists()
        for t_end in ("inf", "nan"):
            assert run("simulate", "--gamma-tau", "0.1", "--t-end", t_end,
                       "--out", "x.csv") == 1
            assert "t_end must be finite" in capsys.readouterr().err
        # a t_end under one step once ended in numpy's gradient error
        assert run("simulate", "--gamma-tau", "0.1", "--t-end", "1e-12",
                   "--out", "x.csv") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: t_end=1e-12 rounds to zero steps of h=0.005"]
        assert not (outdir / "x.csv").exists()
        # a finite Delta whose round-trip phase overflows once ended in
        # "error: math domain error"
        assert run("simulate", "--gamma-tau", "0.1", "--delta-fsr", "5e307", "--t-end", "1",
                   "--out", "x.csv") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: round-trip phase 2*delta*tau must be finite, got inf"]
        assert not (outdir / "x.csv").exists()


class TestSpectrum:
    def test_files_and_shapes(self, outdir):
        assert run("spectrum", "--gamma-tau", "0.15", "--delta-steps", "5",
                   "--omega-steps", "101", "--out", "spec.csv") == 0
        _, cols, rows = read_csv(outdir / "spec.csv")
        assert cols == ["delta_fsr", "omega_fsr", "power"]
        assert len(rows) == 5 * 101
        powers = [r[2] for r in rows]
        assert max(powers) == pytest.approx(1.0)
        _, ecols, erows = read_csv(outdir / "spec.csv.eigen.csv")
        assert ecols == ["delta_fsr", "lambda_fsr"]
        assert len(erows) > 0

    def test_json_format(self, outdir):
        assert run("spectrum", "--gamma-tau", "0.15", "--delta-steps", "1",
                   "--omega-steps", "51", "--format", "json",
                   "--out", "spec.json") == 0
        doc = json.loads((outdir / "spec.json").read_text())
        assert set(doc) == {"meta", "heatmap", "eigenfrequencies"}
        assert len(doc["heatmap"]["rows"]) == 51

    def test_uncoupled_eigenfrequencies_are_the_bare_ladder(self, outdir):
        # at gamma = 0 the eigenfrequencies are the link's modes k*FSR in the
        # window and the emitter line Delta, listed once where it sits on a mode
        assert run("spectrum", "--gamma-tau", "0", "--delta-steps", "3",
                   "--omega-steps", "11", "--out", "bare.csv") == 0
        lines = (outdir / "bare.csv.eigen.csv").read_text().splitlines()
        assert lines[3:] == ["delta_fsr,lambda_fsr", "50,50", "50,51",
                             "50.5,50", "50.5,50.5", "50.5,51", "51,50", "51,51"]

    def test_heatmap_streamed_in_bounded_memory(self, outdir):
        # the 41 x 2001 table is never held (as rows, lines and one string it
        # took 23 MB); only the eigenfrequency rows, a few per Delta, grow
        # with --delta-steps
        assert run("spectrum", "--gamma-tau", "0.15", "--delta-steps", "2",
                   "--omega-steps", "11", "--out", "warm.csv") == 0
        peaks = []
        for steps in ("41", "82"):
            tracemalloc.start()
            try:
                assert run("spectrum", "--gamma-tau", "0.15", "--delta-steps", steps,
                           "--omega-steps", "2001", "--out", "spec.csv") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 4e6
        assert peaks[1] < peaks[0] + 256 * 1024

    @pytest.mark.parametrize("argv, message", [
        (("--broadening", "nan"), "broadening must be finite, got nan"),
        (("--broadening", "inf"), "broadening must be finite, got inf"),
        (("--delta-steps", "0"), "--delta-steps must be >= 1, got 0"),
        (("--delta-steps", "-4"), "--delta-steps must be >= 1, got -4"),
        (("--omega-steps", "1"), "--omega-steps must be >= 2, got 1"),
        (("--omega-steps", "-3"), "--omega-steps must be >= 2, got -3"),
        (("--delta-fsr", "nan"), "--delta-fsr must be finite, got nan"),
        (("--delta-fsr=-inf",), "--delta-fsr must be finite, got -inf"),
    ])
    def test_invalid_inputs_exit_before_any_file(self, outdir, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            assert run("spectrum", "--gamma-tau", "0.15", "--delta-steps", "2",
                       "--omega-steps", "11", *argv, "--out", "spec.csv") == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert list(outdir.iterdir()) == []


# every float flag, in a command that reaches its check cheaply
@pytest.mark.parametrize("argv, flag, message", [
    (("simulate",), "--gamma-tau", "gamma0 must be finite, got -inf"),
    (("simulate", "--gamma-tau", "0.1"), "--delta-fsr", "delta must be finite, got -inf"),
    (("simulate", "--gamma-tau", "0.1"), "--t-end", "t_end must be finite, got -inf"),
    (("spectrum", "--delta-steps", "2", "--omega-steps", "11"), "--gamma-tau",
     "gamma0 must be finite, got -inf"),
    (("spectrum", "--gamma-tau", "0.15"), "--delta-fsr", "--delta-fsr must be finite, got -inf"),
    (("spectrum", "--gamma-tau", "0.15", "--delta-steps", "2", "--omega-steps", "11"),
     "--broadening", "broadening must be finite, got -inf"),
    (("protocol", "swap", "--t", "3"), "--gamma-tau", "gamma0 must be finite, got -inf"),
    (("protocol", "swap", "--gamma-tau", "0.2"), "--t", "need gamma0 > 0 and duration > 0"),
    (("protocol", "swap", "--gamma-tau", "0.2", "--scan-t"), "--t-min",
     "--t-min must be finite, got -inf"),
    (("protocol", "swap", "--gamma-tau", "0.2", "--scan-t"), "--t-max",
     "--t-max must be finite, got -inf"),
    (("protocol", "swap", "--gamma-tau", "0.2", "--scan-t"), "--t-step",
     "--t-step must be > 0, got -inf"),
    (("protocol", "swap", "--gamma-tau", "0.2", "--t", "3"), "--kappa-tau",
     "kappa must be finite and >= 0, got -inf"),
    (("scan", "--grid", "0.2"), "--kappa-tau", "kappa must be finite and >= 0, got -inf"),
    (("scan", "--grid", "0.2", "--protocols", "czkm", "--ww", "--n-modes", "5"), "--delta-fsr",
     "delta must be finite, got -inf"),
])
def test_negative_infinity_read_as_a_value(outdir, capsys, argv, flag, message):
    # `flag -inf` once ended in argparse's "expected one argument" (exit 2)
    for spelling in ((flag, "-inf"), (f"{flag}=-inf",)):
        assert run(*argv, *spelling, "--out", "x.out") == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestProtocol:
    def test_czkm_record_with_dark_bright(self, outdir):
        assert run("protocol", "czkm", "--gamma-tau", "0.2", "--t", "30",
                   "--out", "cz.json") == 0
        rec = json.loads((outdir / "cz.json").read_text())
        assert rec["kind"] == "czkm"
        assert 0.0 <= rec["error"] <= 1.0
        db = rec["dark_bright"]
        assert len(db["t"]) == len(db["re_d"]) == len(db["re_b"])
        assert db["t_eff"] == pytest.approx(29.0)

    def test_optimize_swap(self, outdir):
        assert run("protocol", "swap", "--gamma-tau", "0.1",
                   "--optimize", "--out", "sw.json") == 0
        rec = json.loads((outdir / "sw.json").read_text())
        assert rec["T_over_tau"] == pytest.approx(math.pi / math.sqrt(0.1),
                                                  rel=0.2)
        assert rec["error"] < 0.05

    def test_scan_t(self, outdir):
        assert run("protocol", "swap", "--gamma-tau", "0.2", "--scan-t",
                   "--t-min", "5", "--t-max", "10", "--t-step", "0.5",
                   "--out", "st.csv") == 0
        _, cols, rows = read_csv(outdir / "st.csv")
        assert cols == ["T_over_tau", "infidelity"]
        assert len(rows) == 11
        assert all(0.0 <= r[1] <= 1.0 for r in rows)

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_scan_t_rejects_nonpositive_step(self, outdir, capsys, step):
        assert run("protocol", "swap", "--gamma-tau", "0.2", "--scan-t",
                   "--t-step", step, "--out", "st.csv") == 1
        assert "--t-step must be > 0" in capsys.readouterr().err
        assert not (outdir / "st.csv").exists()

    @pytest.mark.parametrize("lo, hi", [("5", "3"), ("5", "4.5")])
    def test_scan_t_rejects_empty_range(self, outdir, capsys, lo, hi):
        assert run("protocol", "swap", "--gamma-tau", "0.2", "--scan-t",
                   "--t-min", lo, "--t-max", hi, "--out", "st.csv") == 1
        assert "holds no duration" in capsys.readouterr().err
        assert not (outdir / "st.csv").exists()

    def test_missing_duration_exits(self, outdir):
        with pytest.raises(SystemExit):
            run("protocol", "swap", "--gamma-tau", "0.2", "--out", "no.json")
        with pytest.raises(SystemExit, match="^--optimize supports swap and stirap$"):
            run("protocol", "czkm", "--gamma-tau", "1", "--optimize", "--out", "no.json")
        assert not (outdir / "no.json").exists()

    def test_kappa_adds_loss(self, outdir):
        assert run("protocol", "stirap", "--gamma-tau", "0.2", "--t", "20",
                   "--kappa-tau", "0.02", "--out", "ls.json") == 0
        rec = json.loads((outdir / "ls.json").read_text())
        assert rec["loss_error"] > 0.0
        assert rec["kappa_tau"] == pytest.approx(0.02)


@pytest.mark.parametrize("argv", [
    ("protocol", "swap", "--gamma-tau", "0.2", "--t", "3", "--format", "csv"),
    ("scan", "--grid", "0.2", "--format", "json"),
    ("spectrum", "--gamma-tau", "0.15", "--steps-per-tau", "100"),
])
def test_unread_flags_refused(outdir, argv):
    with pytest.raises(SystemExit):
        run(*argv, "--out", "x.out")
    assert not (outdir / "x.out").exists()


@pytest.mark.parametrize("argv", [
    ("protocol", "swap", "--gamma-tau", "0.2", "--t", "3", "--kappa-tau", "-1"),
    ("protocol", "stirap", "--gamma-tau", "0.2", "--optimize", "--kappa-tau", "nan"),
    ("protocol", "swap", "--gamma-tau", "0.2", "--scan-t", "--kappa-tau", "inf"),
    ("scan", "--protocols", "czkm", "--grid", "0.5", "--kappa-tau", "nan"),
    ("scan", "--protocols", "swap", "--grid", "0.5", "--kappa-tau", "-0.01"),
    ("scan", "--loss", "--protocols", "czkm", "--grid", "0.5,1,2", "--kappa-tau", "-1"),
])
def test_invalid_kappa_exits_before_any_run(outdir, capsys, monkeypatch, argv):
    runs = []
    for name in ("evolve_pair", "evolve_single"):
        monkeypatch.setattr(shortlink.protocols, name, lambda *a, **k: runs.append(a))
    assert run(*argv, "--out", "x.out") == 1
    assert "error: kappa must be finite and >= 0, got" in capsys.readouterr().err
    assert runs == []
    assert list(outdir.iterdir()) == []


class TestScan:
    @staticmethod
    def _read_mixed(path):
        lines = [l for l in path.read_text().splitlines()
                 if l and not l.startswith("#")]
        return lines[0].split(","), [l.split(",") for l in lines[1:]]

    def test_small_grid(self, outdir):
        assert run("scan", "--grid", "0.2,0.5", "--protocols", "swap,czkm",
                   "--out", "scan.csv") == 0
        cols, rows = self._read_mixed(outdir / "scan.csv")
        assert cols[0] == "protocol"
        assert len(rows) == 4
        assert {r[0] for r in rows} == {"swap", "czkm"}
        summary = json.loads((outdir / "scan.csv.summary.json").read_text())
        assert "crossover_gamma0_tau" in summary

    def test_failing_row_flags_exit_code(self, outdir):
        # a czkm duration rule needs T > tau; gamma so large that 9/sqrt(g)
        # is below tau makes that row fail while the rest still run
        assert run("scan", "--grid", "0.2,120", "--protocols", "czkm",
                   "--out", "bad.csv") == 1
        text = (outdir / "bad.csv").read_text()
        assert "error:" in text
        # a non-finite or non-positive coupling flags its row with this note
        assert run("scan", "--grid", "nan,-1", "--out", "bad.csv") == 1
        lines = [l for l in (outdir / "bad.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines == [
            "protocol,gamma0_tau,T_opt_over_tau,infidelity,loss_error,note",
            'swap,nan,nan,nan,0,"error: gamma0_tau grid must be finite and > 0, got nan"',
            'swap,-1,nan,nan,0,"error: gamma0_tau grid must be finite and > 0, got -1.0"',
            'stirap,nan,nan,nan,0,"error: gamma0_tau grid must be finite and > 0, got nan"',
            'stirap,-1,nan,nan,0,"error: gamma0_tau grid must be finite and > 0, got -1.0"',
            'czkm,nan,nan,nan,0,"error: gamma0_tau grid must be finite and > 0, got nan"',
            'czkm,-1,nan,nan,0,"error: gamma0_tau grid must be finite and > 0, got -1.0"',
        ]
        # the notes' commas are quoted: every row reads back as 6 fields
        rows = list(csv.reader(lines))
        assert [len(r) for r in rows] == [6] * 7
        assert [r[5] for r in rows[1:]] == [
            f"error: gamma0_tau grid must be finite and > 0, got {g}"
            for _ in range(3) for g in ("nan", "-1.0")]
        assert run("scan", "--grid", "inf", "--protocols", "swap", "--out", "bad.csv") == 1
        assert (outdir / "bad.csv").read_text().splitlines()[-1] == (
            'swap,inf,nan,nan,0,"error: gamma0_tau grid must be finite and > 0, got inf"')

    def test_ww_overlay_skips_failed_rows(self, outdir):
        assert run("scan", "--grid", "nan,0.2", "--protocols", "swap", "--ww",
                   "--n-modes", "41", "--out", "s.csv") == 1
        lines = (outdir / "s.csv").read_text().splitlines()
        assert lines[-2] == ("swap,nan,nan,nan,0,"
                             '"error: gamma0_tau grid must be finite and > 0, got nan"')
        assert lines[-1].startswith("swap,0.2,") and lines[-1].endswith(",")
        ww = json.loads((outdir / "s.csv.summary.json").read_text())["ww"]
        assert [(r["protocol"], r["gamma0_tau"]) for r in ww] == [("swap", 0.2)]

    @pytest.mark.parametrize("argv, message", [
        (("--n-modes", "2"), "n_modes must be odd and >= 1"),
        (("--delta-fsr", "nan"), "delta must be finite, got nan"),
        (("--steps-per-tau", "0"), "steps_per_tau must be >= 4"),
    ])
    def test_ww_setup_fails_before_the_scan(self, outdir, capsys, monkeypatch, argv, message):
        def no_run(*args):  # a raising row would be flagged, and the file checked below
            raise AssertionError("optimum called")
        monkeypatch.setattr("shortlink.cli.optimum", no_run)
        assert run("scan", "--grid", "0.2", "--protocols", "czkm", "--ww", *argv,
                   "--out", "s.csv") == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (("--steps-per-tau", "0"), "steps_per_tau must be >= 4"),
        (("--loss", "--steps-per-tau", "3"), "steps_per_tau must be >= 4"),
        (("--protocols", "bogus"), "unknown protocol 'bogus'"),
        (("--protocols", "czkm,swap,bogus"), "unknown protocol 'bogus'"),
        (("--loss", "--protocols", "czkm,bogus"), "unknown protocol 'bogus'"),
    ])
    def test_request_fails_before_the_scan(self, outdir, capsys, monkeypatch, argv, message):
        # a value no row can survive ends the command before any run or file
        def no_run(*args, **kwargs):
            raise AssertionError("a protocol ran")
        for name in ("optimum", "loss_scan"):
            monkeypatch.setattr(f"shortlink.cli.{name}", no_run)
        assert run("scan", "--grid", "0.2", "--protocols", "czkm", *argv, "--out", "s.csv") == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("g", ["0", "-1", "nan"])
    def test_loss_scan_rejects_bad_coupling(self, outdir, capsys, g):
        assert run("scan", "--loss", "--grid", g, "--protocols", "czkm",
                   "--out", "loss.csv") == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: gamma0_tau grid must be finite and > 0, got {float(g)}"]
        assert list(outdir.iterdir()) == []

    def test_loss_scan_outputs_fits(self, outdir):
        assert run("scan", "--loss", "--grid", "0.05,0.1,0.2,0.5",
                   "--protocols", "czkm", "--kappa-tau", "0.01",
                   "--out", "loss.csv") == 0
        cols, rows = self._read_mixed(outdir / "loss.csv")
        assert len(rows) == 4
        fits = json.loads((outdir / "loss.csv.fits.json").read_text())
        assert fits["czkm"]["exponent"] > 0.0


# SHA-256 of outputs written by the code before any refactor that must keep
# every printed digit; a moved digit anywhere in these files fails here.
@pytest.mark.parametrize("argv, digest", [
    (("simulate", "--gamma-tau", "1.3", "--emitters", "2"),
     "957e08cc317092d4223e102c7d1a610bf78e4997d7f436591b60930d63a18cec"),
    (("protocol", "swap", "--gamma-tau", "0.2", "--scan-t",
      "--t-min", "2", "--t-max", "4"),
     "347071bda2fc5ee6c20d6de0e36e714fcb46388e4fec16d37bd42f33bcc9e48e"),
    (("protocol", "swap", "--gamma-tau", "0.2", "--optimize"),
     "b665e3e5ef60ccd428c93944be42b509ca36dff6f9ddc80a8fa54e0f2eba81aa"),
    (("spectrum", "--gamma-tau", "0.15", "--delta-steps", "3",
      "--omega-steps", "51", "--format", "json"),
     "9aaabacd7a97aa382e014b0ac76aee6e487f2a856f5a5d42479318e0d6857631"),
    (("spectrum", "--gamma-tau", "0.15", "--delta-steps", "3", "--omega-steps", "51"),
     ("95185fa686682be1a3e5daa8a1c82f765ea483efb8c78f1ade8306aefbf034af",    # pinned.out
      "94ff206dd82ee2dbda8e36c365dfe85bafd2f71e8cc3fa41b2635d571d3f9557")),  # .eigen.csv
    (("scan",),
     ("64b5ab3342079a329f2618f30471db9ca91c50d1b7dfa6330cfa65ef2282ec38",    # pinned.out
      "93c2b025d04077f8077e32342990d1197e2e9a15fda9444dce8c77759b2ff39e")),  # .summary.json
])
def test_output_bytes_pinned(outdir, argv, digest):
    # one digest per file written, in file-name order
    assert run(*argv, "--out", "pinned.out") == 0
    got = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(outdir.iterdir()))
    assert got == (digest if isinstance(digest, tuple) else (digest,))


def test_compare_outputs_commands_parse():
    # tools/compare_outputs.py runs these; a typo would only show as a
    # usage error in both checkouts, which compares equal
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parser = build_parser()
    for argv in tool.COMMANDS:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_time_criteria_items():
    # tools/time_criteria.py times every acceptance criterion and a reduced
    # `scan --ww`; a renamed criterion or a bad scan argument would drop or
    # break an item without failing anything else
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("time_criteria",
                                                  root / "tools" / "time_criteria.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    labels = [label for label, _ in tool.items([root, root])]
    assert labels[:2] == ["criterion_01_mode_resolved_oracle_agreement",
                          "criterion_02_series_solution_equivalence"]
    assert len(labels) == 11 and labels[-1] == " ".join(tool.SCAN_ARGS)
    assert build_parser().parse_args(tool.SCAN_ARGS).ww
    r = tool.summary([{"s": 2.0, "ok": True}, {"s": 4.0, "ok": False}],
                     [{"s": 1.0, "ok": True}, {"s": 5.0, "ok": True}])
    assert (r["parent_median"], r["change_median"]) == (3.0, 3.0)
    assert r["change_faster_rounds"] == "1 of 2"
    assert r["passed"] == {"parent": False, "change": True}


def test_kernel_split_oracle_line(outdir):
    # tools/kernel_split.py's oracle line: the calling thread's waits on the
    # worker, the worker's exp calls and the calling thread's other time, from
    # shims put in from outside and taken out after the pass, which writes
    # what a plain run writes
    from shortlink import cli, ww
    path = Path(__file__).resolve().parents[1] / "tools" / "kernel_split.py"
    spec = importlib.util.spec_from_file_location("kernel_split", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argv = ["simulate", "--gamma-tau", "0.1", "--emitters", "2", "--ww", "--t-end", "0.5"]
    assert run(*argv, "--out", "plain.csv") == 0
    before = (cli.evolve_ww, ww.np, ww.queue)
    s = tool.oracle_split(cli, ww, lambda: run(*argv, "--out", "split.csv"))
    assert (cli.evolve_ww, ww.np, ww.queue) == before
    assert (outdir / "split.csv").read_bytes() == (outdir / "plain.csv").read_bytes()
    assert tuple(s) == tool.ORACLE_COLUMNS == ("wait_s", "exp_s", "rest_s")
    assert min(s.values()) > 0.0
    line = tool.row("oracle-overlay", s, tool.ORACLE_COLUMNS)
    assert line.split() == ["oracle-overlay", *(f"{s[c]:.3f}" for c in tool.ORACLE_COLUMNS)]
