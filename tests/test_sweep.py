import math

import numpy as np
import pytest

from shortlink.core import make_link
from shortlink.protocols import ProtocolSpec, run_protocol
from shortlink.sweep import (ScanRecord, crossover, error_vs_duration,
                             fit_power_law, loss_scan, optimal_stirap,
                             optimal_swap, scan_protocols)


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
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 1e-12), (0.2, 1e-12), (0.3, 1e-2)])

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
        with pytest.raises(ValueError):
            optimal_swap(-0.1)


class TestOptimalStirap:
    def test_first_valley_near_rule_of_thumb(self):
        for g in (0.2, 1.0):
            rec = optimal_stirap(g)
            assert rec.note == ""
            assert rec.t_opt == pytest.approx(9.0 / math.sqrt(g), rel=0.3)
            assert 0.0 <= rec.infidelity <= 1.0

    def test_determinism(self):
        assert optimal_stirap(0.5) == optimal_stirap(0.5)


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
