import math

import numpy as np
import pytest
from scipy.optimize import golden

from shortlink.core import make_link
from shortlink.protocols import ProtocolSpec, run_protocol
from shortlink.sweep import (ScanRecord, _error, _golden, crossover,
                             error_vs_duration, fit_power_law, loss_scan,
                             optimal_stirap, optimal_swap, optimum,
                             scan_protocols)

# the one coupling message, before the value
BAD_COUPLING = "gamma0_tau grid must be finite and > 0, got"


def _both(f, bracket, tol):
    """(result or error, arguments f was called with) of _golden and of scipy's golden."""
    out = []
    for solve in (lambda g: _golden(g, *bracket, tol),
                  lambda g: golden(g, brack=bracket, tol=tol)):
        calls = []

        def g(x):
            calls.append(x)
            return f(x)
        try:
            res = solve(g)
        except ValueError as exc:
            res = str(exc)
        out.append((res, calls))
    return out


class TestGolden:
    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for i in range(300):
            m, w, ripple = rng.uniform(-5, 5), rng.uniform(0.01, 3), rng.uniform(0, 0.3)
            xb = m + rng.uniform(-0.1, 0.1) * w
            bracket = (xb - w * rng.uniform(0.5, 1.5), xb, xb + w * rng.uniform(0.5, 1.5))
            if i % 2:
                bracket = bracket[::-1]  # descending brackets are reordered
            if i % 3 == 0:
                bracket = tuple(np.float64(x) for x in bracket)  # as optimal_swap passes them
            f = lambda x: (x - m) ** 2 + ripple * math.cos(7.0 * x)
            (got, got_calls), (want, want_calls) = _both(f, bracket, [1e-4, 1e-8][i // 2 % 2])
            assert isinstance(got, str) == isinstance(want, str)
            assert got == want and type(got) is type(want)
            assert got_calls == want_calls

    def test_matches_scipy_on_a_transfer_error(self):
        # a SWAP valley at a coarse grid: the optimiser's real objective
        f = lambda T: _error("swap", 1.0, float(T), 20)
        (got, got_calls), (want, want_calls) = _both(f, (3.2, 3.5, 3.8), 1e-4)
        assert got == want and got_calls == want_calls
        assert len(got_calls) > 10

    def test_bracket_errors_match_scipy(self):
        f = lambda x: (x - 1.0) ** 2
        for bracket in [(0.0, 2.0, 1.0),      # xb outside (xa, xc)
                        (0.0, 0.0, 1.0),      # xa == xb
                        (0.0, 3.0, 4.0),      # f(xb) not below f(xa)
                        (0.0, 2.0, 3.0),      # tie: f(xb) == f(xa)
                        (-1.0, 0.0, 1.0)]:    # f(xb) not below f(xc)
            (got, got_calls), (want, want_calls) = _both(f, bracket, 1e-4)
            assert isinstance(got, str) and got == want
            assert got_calls == want_calls
        assert f(0.0) == f(2.0)  # the tie case is an exact tie


class TestFitPowerLaw:
    def test_exact_synthetic(self):
        x = np.array([0.1, 0.3, 1.0, 3.0])
        a, b, resid = fit_power_law(list(zip(x, 3.0 * x**2)))
        assert a == pytest.approx(3.0, rel=1e-12)
        assert b == pytest.approx(2.0, rel=1e-12)
        assert resid < 1e-12

    def test_noise_floor_exclusion(self):
        pts = [(0.1, 1e-2), (0.2, 4e-2), (0.4, 1.6e-1), (0.8, 1e-12)]
        a, b, _ = fit_power_law(pts)  # last point dropped
        assert b == pytest.approx(2.0, rel=1e-9)
        with pytest.raises(ValueError, match="^need at least 3 distinct x above the noise floor$"):
            fit_power_law([(0.1, 1e-12), (0.2, 1e-12), (0.3, 1e-2)])
        # repeated x: points enough, but a line through one or two abscissae
        for pts in ([(0.2, 1e-2)] * 3, [(0.1, 1e-2), (0.2, 4e-2), (0.1, 1e-2), (0.2, 4e-2)],
                    [(0.1, 1e-2), (0.2, 4e-2), (0.4, 1e-12), (0.2, 4e-2)]):
            with pytest.raises(ValueError, match="^need at least 3 distinct x above the "
                                                 "noise floor$"):
                fit_power_law(pts)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                fit_power_law([(0.1, 1e-2), (0.2, 4e-2), (0.4, 1.6e-1), (0.8, bad)])


class TestOptimalSwap:
    def test_cavity_limit(self):
        # quasi-cavity regime: optimum within 2% of the bare Rabi period
        rec = optimal_swap(0.001)
        t_rabi = math.pi / math.sqrt(0.001)
        assert rec.t_opt == pytest.approx(t_rabi, rel=0.02)
        assert rec.infidelity < 0.01

    def test_refinement_beats_coarse_grid(self):
        g = 0.1
        rec = optimal_swap(g)
        t_rabi = math.pi / math.sqrt(g)
        coarse = error_vs_duration("swap", g,
                                   np.linspace(0.5 * t_rabi, 1.5 * t_rabi, 41))
        assert rec.infidelity <= np.min(coarse) + 1e-15

    def test_determinism(self):
        a = optimal_swap(0.2)
        b = optimal_swap(0.2)
        assert a == b

    def test_validation(self):
        for g in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{BAD_COUPLING} {g}$"):
                optimal_swap(g)

    def test_bracket_endpoint_record(self):
        # strong coupling: the coarse scan's error falls to the bracket's top end
        with pytest.warns(RuntimeWarning, match="no interior SWAP minimum"):
            rec = optimal_swap(20.0)
        T = 1.5 * (math.pi / math.sqrt(20.0))
        assert rec == ScanRecord("swap", 20.0, T, _error("swap", 20.0, T, 200),
                                 rec.loss_integral, "bracket-endpoint")
        assert rec.loss_integral > 0.0

    @pytest.mark.parametrize("call", [
        lambda: optimal_swap(20.0),
        lambda: optimum("swap", 20.0),
        lambda: scan_protocols([20.0], ("swap",)),
    ], ids=["optimal_swap", "optimum", "scan_protocols"])
    def test_bracket_endpoint_warning_names_the_caller(self, call):
        # not a line of sweep.py, whichever of its functions was called
        with pytest.warns(RuntimeWarning, match="no interior SWAP minimum") as caught:
            call()
        assert [w.filename for w in caught] == [__file__]


class TestOptimalStirap:
    def test_first_valley_near_rule_of_thumb(self):
        for g in (0.2, 1.0):
            rec = optimal_stirap(g)
            assert rec.note == ""
            assert rec.t_opt == pytest.approx(9.0 / math.sqrt(g), rel=0.3)
            assert 0.0 <= rec.infidelity <= 1.0

    def test_determinism(self):
        assert optimal_stirap(0.5) == optimal_stirap(0.5)

    def test_no_valley_within_scan(self):
        # the scan stops at 100/sqrt(2000) < 2.25, before the error can turn
        rec = optimal_stirap(2000.0, steps_per_tau=1000)
        assert rec == ScanRecord("stirap", 2000.0, 2.0, _error("stirap", 2000.0, 2.0, 1000),
                                 note="no-valley-within-scan")

    def test_validation(self):
        for g in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{BAD_COUPLING} {g}$"):
                optimal_stirap(g)


class TestScanProtocols:
    def test_empty_subset(self):
        assert scan_protocols([0.1], protocols=()) == []

    def test_records_and_crossover_helper(self):
        recs = [
            ScanRecord("stirap", 0.5, 12.0, 1e-4),
            ScanRecord("stirap", 2.0, 6.4, 1e-3),
            ScanRecord("czkm", 0.5, 12.7, 1e-2),
            ScanRecord("czkm", 2.0, 6.4, 1e-4),
        ]
        assert crossover(recs) == 2.0
        assert crossover(recs[:2]) is None

    def test_scan_is_optimum_per_kind_and_coupling(self):
        grid, kinds = [0.5, 2.0], ("czkm", "swap", "stirap")
        recs = scan_protocols(grid, kinds)
        assert recs == [optimum(k, g) for k in kinds for g in grid]
        assert [(r.protocol, r.gamma0_tau) for r in recs] == [
            (k, g) for k in kinds for g in grid]

    def test_czkm_rule_duration(self):
        recs = scan_protocols([0.25], protocols=("czkm",))
        assert len(recs) == 1
        assert recs[0].t_opt == pytest.approx(9.0 / math.sqrt(0.25))
        assert recs[0].infidelity > 0.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scan_protocols([0.1, -0.2], protocols=("czkm",))
        with pytest.raises(ValueError):
            scan_protocols([0.1], protocols=("teleport",))
        # one coupling check, one message, for every protocol; the name is
        # checked first
        for kind in ("swap", "stirap", "czkm"):
            for g in (0.0, -0.2, math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{BAD_COUPLING} {g}$"):
                    optimum(kind, g)
        for g in (0.1, math.nan):
            with pytest.raises(ValueError, match="^unknown protocol 'teleport'$"):
                optimum("teleport", g)
        with pytest.raises(ValueError, match="^unknown protocol 'teleport'$"):
            loss_scan([0.1], protocols=("czkm", "teleport"))

    def test_loss_scan_needs_three_couplings_before_any_run(self, monkeypatch):
        # the power-law fit needs 3 distinct couplings: fewer fail before the
        # first transfer, after the kappa, name and coupling checks
        runs = []
        monkeypatch.setattr("shortlink.sweep.transfer", lambda *a: runs.append(a))
        for grid, n in (([], 0), ([0.2], 1), ([0.2, 0.5], 2), ([0.2, 0.2, 0.2], 1),
                        ([0.2, 0.5, 0.2, 0.5], 2)):
            with pytest.raises(ValueError, match=rf"^a loss scan's power-law fit needs "
                                                 rf"at least 3 distinct couplings, got {n}$"):
                loss_scan(grid, protocols=("czkm",))
        with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
            loss_scan([0.2], kappa_tau=-1.0)
        with pytest.raises(ValueError, match="^unknown protocol 'teleport'$"):
            loss_scan([0.2], protocols=("teleport",))
        with pytest.raises(ValueError, match=f"^{BAD_COUPLING} nan$"):
            loss_scan([0.2, math.nan])
        assert runs == []


@pytest.mark.parametrize("kind,g,Ts", [
    ("swap", 0.2, (5.0, 7.123, 9.9)),
    ("stirap", 1.0, (3.0, 8.45)),
    ("czkm", 0.5, (4.0, 12.7279)),
])
def test_error_vs_duration_matches_run_protocol(kind, g, Ts):
    link = make_link(g, 1.0, 0.0)
    want = [run_protocol(ProtocolSpec(kind, g, T), link)[1]["error"] for T in Ts]
    assert error_vs_duration(kind, g, Ts).tolist() == want


def test_loss_scan_structure():
    out = loss_scan([0.05, 0.1, 0.2, 0.5], kappa_tau=0.01,
                    protocols=("czkm",))
    rec = out["czkm"]
    assert len(rec["rows"]) == 4
    assert rec["fit"]["exponent"] > 0.0
    # loss grows with duration in the scanned regime
    eps = [e for _, e in rec["rows"]]
    Ts = [T for T, _ in rec["rows"]]
    assert eps[np.argmax(Ts)] == max(eps)
