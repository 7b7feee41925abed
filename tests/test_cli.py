import json
import math
from pathlib import Path

import pytest

from shortlink.cli import main


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

    def test_invalid_parameters_exit_1(self, outdir, capsys):
        assert run("simulate", "--gamma-tau", "-1", "--out", "x.csv") == 1
        assert "error:" in capsys.readouterr().err
        assert not (outdir / "x.csv").exists()
        for t_end in ("inf", "nan"):
            assert run("simulate", "--gamma-tau", "0.1", "--t-end", t_end,
                       "--out", "x.csv") == 1
            assert "t_end must be finite" in capsys.readouterr().err
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

    def test_loss_scan_outputs_fits(self, outdir):
        assert run("scan", "--loss", "--grid", "0.05,0.1,0.2,0.5",
                   "--protocols", "czkm", "--kappa-tau", "0.01",
                   "--out", "loss.csv") == 0
        cols, rows = self._read_mixed(outdir / "loss.csv")
        assert len(rows) == 4
        fits = json.loads((outdir / "loss.csv.fits.json").read_text())
        assert fits["czkm"]["exponent"] > 0.0
