"""The benchmark's workloads: inputs from a seed, one timed pass, and the
per-operation correctness gate.

Each workload is driven in-process through `shortlink.cli.main` and the
public library functions, always looked up as module attributes at call
time so that the tracer's wrappers see every call.  An operation is one
scan point, one simulate or spectrum command, one series draw or one CZKM
point; `check` returns one (operation, ok, detail) row per operation.

Seed DEFAULT_SEED reproduces the CLI defaults and the inputs of acceptance
criteria 02 and 07, and its outputs are also compared with reference.json.
Any other seed scales each coupling by its own factor drawn from
[0.9, 1.1] and redraws the crosscheck (gamma, phi) pairs.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REFERENCE = Path(__file__).with_name("reference.json")

SCAN_GRID = (0.05, 0.1, 0.2, 0.5, 1.0, 1.44, 2.0)
CZKM_COUPLINGS = (0.05, 0.1, 0.2, 0.5, 1.0)
CZKM_DURATIONS = (5.0, 10.0, 20.0, 40.0, 80.0)
N_DRAWS = 20

SERIES_TOL = 1e-6   # criterion 02
CZKM_TOL = 1e-6     # criterion 07, on its grid of durations
# The scan's CZKM durations 9/sqrt(g) are mostly off the tau/200 grid, where
# the closed form and the DDE differ by up to ~2e-5 at the seed commit
# (g = 0.356, T = 15.09), so the scan rows get a coarser sanity bound.
SCAN_CZKM_TOL = 1e-4
WW_TOL = 2e-2       # criterion 01
# evolve_pair agrees with the two-sector evolve_single route to ~3e-15; the
# slack covers the 12 significant digits of the CSV the CLI writes.
SECTOR_TOL = 1e-9
# a returned optimum must not be beaten at T*(1 -+ OPT_STEP)
OPT_STEP = 1e-3


def sl(module):
    """A shortlink module, imported on first use (the parent never needs it)."""
    return importlib.import_module(f"shortlink.{module}")


def _factors(seed, n):
    if seed == DEFAULT_SEED:
        return [1.0] * n
    return [float(x) for x in np.random.default_rng(seed).uniform(0.9, 1.1, n)]


def read_csv(path):
    """(columns, rows of strings) of a CSV written by the CLI."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _close(got, want, rtol, atol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


class ScanDefault:
    """`shortlink scan` over the default grid with all three protocols."""

    name = "scan-default"
    setup_argv = ["scan", "--grid", "1.0", "--protocols", "czkm", "--out", "setup-scan.csv"]
    # t_opt, infidelity and loss integral: an optimiser may land anywhere
    # within its 1e-4 duration tolerance, which moves the error at the
    # optimum only at second order
    ref_tol = {"t_opt": (1e-3, 0.0), "infidelity": (1e-5, 1e-12), "loss": (1e-3, 1e-12)}

    def __init__(self, seed):
        self.grid = tuple(g * f for g, f in zip(SCAN_GRID, _factors(seed, len(SCAN_GRID))))
        self.argv = ["scan", "--out", "scan.csv"]
        if seed != DEFAULT_SEED:
            self.argv += ["--grid", ",".join(repr(g) for g in self.grid)]
        self.optimiser_points = {"0.05": self.grid[0], "1.0": self.grid[4]}

    def run_pass(self):
        return sl("cli").main(self.argv)

    def outputs(self, outdir, rc):
        cols, rows = read_csv(outdir / "scan.csv")
        recs = [dict(zip(cols, r)) for r in rows]
        return {"rc": rc, "records": [
            [r["protocol"], float(r["gamma0_tau"]), float(r["T_opt_over_tau"]),
             float(r["infidelity"]), float(r["loss_error"]), r["note"]] for r in recs]}

    def digest(self, out):
        return {"records": out["records"]}

    def check(self, out, ref):
        dde, core, protocols = sl("dde"), sl("core"), sl("protocols")
        expect = [(k, g) for k in ("swap", "stirap", "czkm") for g in self.grid]
        got = [(r[0], r[1]) for r in out["records"]]
        if out["rc"] != 0 or len(got) != len(expect):
            return [(f"scan:{k}@{g:.6g}", False, f"exit {out['rc']}, {len(got)} rows")
                    for k, g in expect]
        ref_recs = ref["records"] if ref else None
        results = []
        for i, (kind, g, T, eps, loss, note) in enumerate(out["records"]):
            problems = []
            if not (abs(g / expect[i][1] - 1.0) < 1e-11 and kind == expect[i][0]):
                problems.append(f"row is {kind}@{g}, expected {expect[i]}")
            if not (math.isfinite(T) and 0.0 <= eps <= 1.0 and note == ""):
                problems.append(f"T={T} eps={eps} note={note!r}")
            elif kind == "swap":
                e = _swap_sector_error(dde, core, g, T)
                if abs(e - eps) > SECTOR_TOL:
                    problems.append(f"sector route gives {e:.12g}, scan {eps:.12g}")
                side = min(_swap_sector_error(dde, core, g, T * (1 - OPT_STEP)),
                           _swap_sector_error(dde, core, g, T * (1 + OPT_STEP)))
                if side < e - 1e-12:
                    problems.append(f"not a minimum: {side:.6g} < {e:.6g} nearby")
            elif kind == "stirap":
                link = core.make_link(g, 1.0, 0.0)
                side = min(protocols.run_protocol(protocols.ProtocolSpec("stirap", g, t), link)[1]["error"]
                           for t in (T * (1 - OPT_STEP), T * (1 + OPT_STEP)))
                if T < 2.0 or side < eps - 1e-12:
                    problems.append(f"not a valley minimum: {side:.6g} < {eps:.6g} nearby")
            else:
                if abs(T - 9.0 / math.sqrt(g)) > 1e-9 * T:
                    problems.append(f"T={T} is not 9/sqrt(g)")
                link = core.make_link(g, 1.0, 0.0)
                _, rec = protocols.run_protocol(protocols.ProtocolSpec("czkm", g, T), link)
                if abs(rec["error"] - eps) > SCAN_CZKM_TOL:
                    problems.append(f"DDE gives {rec['error']:.6g}, closed form {eps:.6g}")
            if ref_recs is not None:
                w = ref_recs[i]
                for key, a, b in (("t_opt", T, w[2]), ("infidelity", eps, w[3]), ("loss", loss, w[4])):
                    if not _close(a, b, *self.ref_tol[key]):
                        problems.append(f"{key} {a!r} differs from reference {b!r}")
            results.append((f"scan:{kind}@{g:.6g}", not problems, "; ".join(problems)))
        return results


def _swap_sector_error(dde, core, g, T):
    """1 - |c2(T)|^2 of SWAP from the symmetric/antisymmetric sector split.

    With equal constant couplings, c1 +- c2 each obey the single-emitter
    equation with round trip (tau, phi) for + and (tau, phi + pi) for -.
    """
    link = core.make_link(g, 1.0, 0.0)
    grid = core.make_grid(1.0, T, 200)
    pulse = core.constant_pulse(g, (0.0, T))
    c = [dde.evolve_single(link, pulse, 1.0, grid, round_trip=(1.0, link.phi + shift)).amplitude_at(0, T)
         for shift in (0.0, math.pi)]
    return 1.0 - abs(0.5 * (c[0] - c[1])) ** 2


class OracleOverlay:
    """`shortlink simulate --ww`: the mode-resolved oracle next to the DDE."""

    name = "oracle-overlay"
    setup_argv = ["simulate", "--gamma-tau", "0.1", "--emitters", "2", "--ww",
                  "--t-end", "0.05", "--n-modes", "3", "--out", "setup-simulate.csv"]
    stride = 200      # reference rows: one per tau
    # DDE columns are reproduced to the CSV's 12 digits; the RK4 oracle
    # columns may move by up to its own time-step error
    ref_tol = {"dde": (1e-9, 1e-10), "ww": (0.0, 1e-4)}

    def __init__(self, seed):
        self.gamma = 0.1 * _factors(seed, 1)[0]
        self.argv = ["simulate", "--gamma-tau", repr(self.gamma), "--emitters", "2",
                     "--ww", "--out", "simulate.csv"]
        self.optimiser_points = {}

    def run_pass(self):
        return sl("cli").main(self.argv)

    def outputs(self, outdir, rc):
        cols, rows = read_csv(outdir / "simulate.csv")
        return {"rc": rc, "columns": cols, "data": np.array(rows, dtype=float)}

    def digest(self, out):
        return {"columns": out["columns"], "rows": out["data"][::self.stride].tolist()}

    def check(self, out, ref):
        problems = []
        cols, data = out["columns"], out["data"]
        if out["rc"] != 0 or "ww_pop1" not in cols:
            return [("simulate", False, f"exit {out['rc']}, columns {cols}")]
        col = {c: data[:, i] for i, c in enumerate(cols)}
        if not np.all(np.isfinite(data)):
            problems.append("non-finite values")
        dev = max(float(np.max(np.abs(col[f"ww_pop{l}"] - col[f"pop{l}"]))) for l in (1, 2))
        if not dev <= WW_TOL:
            problems.append(f"oracle vs DDE population deviation {dev:.3g} > {WW_TOL}")
        if ref:
            rows = data[::self.stride]
            want = np.array(ref["rows"])
            is_ww = np.array([c.startswith("ww_") for c in cols])
            if list(ref["columns"]) != cols or rows.shape != want.shape:
                problems.append("columns or length differ from reference")
            else:
                for part, mask in (("dde", ~is_ww), ("ww", is_ww)):
                    if not _close(rows[:, mask], want[:, mask], *self.ref_tol[part]):
                        problems.append(f"{part} columns differ from reference")
        return [("simulate", not problems, "; ".join(problems))]


class Crosscheck:
    """The closed-form routes: spectrum command, series draws, CZKM grid."""

    name = "crosscheck"
    setup_argv = ["spectrum", "--gamma-tau", "0.15", "--delta-steps", "1",
                  "--omega-steps", "11", "--out", "setup-spectrum.csv"]
    stride = 1000     # reference heatmap rows
    ref_tol = (1e-9, 1e-12)

    def __init__(self, seed):
        f = _factors(seed, 1 + len(CZKM_COUPLINGS))
        self.gamma = 0.15 * f[0]
        self.argv = ["spectrum", "--gamma-tau", repr(self.gamma), "--out", "spectrum.csv"]
        self.czkm = [(g * x, T) for g, x in zip(CZKM_COUPLINGS, f[1:]) for T in CZKM_DURATIONS]
        # criterion 02 draws (gamma, phi) from default_rng(7)
        rng = np.random.default_rng(7 if seed == DEFAULT_SEED else [seed, 2])
        self.draws = [(float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
                      for _ in range(N_DRAWS)]
        self.optimiser_points = {}

    def run_pass(self):
        cli, core, dde, analytic, protocols = (sl(m) for m in ("cli", "core", "dde", "analytic", "protocols"))
        rc = cli.main(self.argv)
        series = []
        for gamma, phi in self.draws:
            link = core.make_link(gamma, 1.0, phi)
            grid = core.make_grid(1.0, 10.0, 400)
            pulse = core.constant_pulse(gamma, (0.0, grid.t_end))
            traj = dde.evolve_single(link, pulse, 1.0, grid, round_trip=(1.0, phi))
            p = analytic.SeriesParams(gamma=gamma, delay=1.0, phi=phi)
            exact = np.array([analytic.series_solution(p, t) for t in grid.times()])
            series.append((float(np.max(np.abs(traj.c[0] - exact))), complex(traj.c[0, -1]), complex(exact[-1])))
        czkm = []
        for g, T in self.czkm:
            _, rec = protocols.run_protocol(protocols.ProtocolSpec("czkm", g, T), core.make_link(g, 1.0, 0.0))
            czkm.append((rec["error"], protocols.czkm_exact_error(g, 1.0, T)))
        return rc, series, czkm

    def outputs(self, outdir, result):
        rc, series, czkm = result
        _, heat = read_csv(outdir / "spectrum.csv")
        _, eigen = read_csv(outdir / "spectrum.csv.eigen.csv")
        return {"rc": rc, "heatmap": np.array(heat, dtype=float),
                "eigen": np.array(eigen, dtype=float), "series": series, "czkm": czkm}

    def digest(self, out):
        return {"heatmap": out["heatmap"][::self.stride].tolist(),
                "eigen": out["eigen"].tolist(),
                "series_end": [[c.real, c.imag, e.real, e.imag] for _, c, e in out["series"]],
                "czkm": [list(x) for x in out["czkm"]]}

    def check(self, out, ref):
        results = [("spectrum", *self._check_spectrum(out, ref))]
        for i, (err, c_end, e_end) in enumerate(out["series"]):
            problems = [] if err <= SERIES_TOL else [f"max |DDE - series| {err:.3g} > {SERIES_TOL}"]
            if ref and not _close([c_end.real, c_end.imag, e_end.real, e_end.imag],
                                  ref["series_end"][i], *self.ref_tol):
                problems.append("c(10) differs from reference")
            results.append((f"series:{i}", not problems, "; ".join(problems)))
        for i, ((dde_err, exact), (g, T)) in enumerate(zip(out["czkm"], self.czkm)):
            problems = [] if abs(dde_err - exact) <= CZKM_TOL else [
                f"|exact - DDE| = {abs(dde_err - exact):.3g} > {CZKM_TOL}"]
            if ref and not _close([dde_err, exact], ref["czkm"][i], *self.ref_tol):
                problems.append("errors differ from reference")
            results.append((f"czkm:{g:.6g}@{T:g}", not problems, "; ".join(problems)))
        return results

    def _check_spectrum(self, out, ref):
        problems = []
        heat, eigen = out["heatmap"], out["eigen"]
        if out["rc"] != 0 or heat.shape != (81 * 801, 3):
            return False, f"exit {out['rc']}, heatmap shape {heat.shape}"
        blocks = heat[:, 2].reshape(81, 801)
        if not (np.all(blocks >= 0) and np.allclose(blocks.max(axis=1), 1.0, rtol=0, atol=1e-12)):
            problems.append("heatmap rows are not normalised spectra")
        # each lambda must bracket a root of the monotone branch function
        # f = lambda - Delta - (gamma/2) cot(lambda tau), one per open branch
        lo, hi = heat[0, 1] * math.pi, heat[800, 1] * math.pi
        n_branches = sum(1 for k in range(math.floor(lo / math.pi) - 1, math.ceil(hi / math.pi) + 1)
                         if (k + 1) * math.pi > lo and k * math.pi < hi)
        for d in np.unique(eigen[:, 0]):
            lams = eigen[eigen[:, 0] == d, 1] * math.pi
            if len(lams) != n_branches:
                problems.append(f"{len(lams)} roots at Delta={d}, {n_branches} branches")
            for lam in lams:
                f = [x - d * math.pi - 0.5 * self.gamma / math.tan(x)
                     for x in (lam * (1 - 1e-9), lam * (1 + 1e-9))]
                if not (f[0] < 0.0 < f[1] and math.floor(lam * (1 - 1e-9) / math.pi)
                        == math.floor(lam * (1 + 1e-9) / math.pi)):
                    problems.append(f"lambda={lam!r} is not a root at Delta={d}")
        if ref:
            if not _close(heat[::self.stride], ref["heatmap"], *self.ref_tol):
                problems.append("heatmap differs from reference")
            if not _close(eigen, ref["eigen"], *self.ref_tol):
                problems.append("eigenfrequencies differ from reference")
        return not problems, "; ".join(problems[:5])


WORKLOADS = {w.name: w for w in (ScanDefault, OracleOverlay, Crosscheck)}


def load_reference(name, seed):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())["outputs"][name]
