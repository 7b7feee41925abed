import math

import numpy as np
import pytest
from scipy.optimize import brentq

from shortlink.analytic import (SeriesParams, _brentq, _eigen_residual,
                                eigenfrequencies, jump_formula,
                                output_amplitude, output_spectrum,
                                resonant_splitting, series_solution,
                                spectrum_scan)
from shortlink.core import constant_pulse, make_grid, make_link
from shortlink.dde import derivative_kinks, evolve_single, population_kinks


class TestSeries:
    def test_plain_decay_before_first_echo(self):
        p = SeriesParams(gamma=0.7, delay=1.0, phi=2.0)
        for t in (0.0, 0.3, 0.99):
            assert series_solution(p, t) == pytest.approx(math.exp(-0.35 * t))

    def test_continuity_at_echo_arrivals(self):
        p = SeriesParams(gamma=1.2, delay=1.0, phi=0.8)
        for n in (1, 2, 5):
            lo = series_solution(p, n - 1e-9)
            hi = series_solution(p, n + 1e-9)
            assert abs(hi - lo) < 1e-7

    def test_truncation_guard(self):
        p = SeriesParams(gamma=0.1, delay=1.0, phi=0.0, n_max=3)
        with pytest.raises(ValueError):
            series_solution(p, 5.0)
        with pytest.raises(ValueError):
            series_solution(p, -0.1)

    def test_non_finite_parameters_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            for kw in ({"gamma": bad}, {"delay": bad}, {"phi": bad}):
                args = {"gamma": 0.5, "delay": 1.0, "phi": 0.3, **kw}
                with pytest.raises(ValueError, match="finite"):
                    SeriesParams(**args)

    def test_domain_guard(self):
        p = SeriesParams(gamma=0.5, delay=1.0, phi=0.3)
        series_solution(p, 80.0)  # gamma*t = 40 exactly is inside
        for t in (80.0 + 1e-9, 1e3, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"gamma\*t < 40"):
                series_solution(p, t)
        with pytest.raises(ValueError, match=r"gamma\*t < 40"):
            series_solution(SeriesParams(gamma=20.0, delay=1.0, phi=0.0), 2.5)

    def test_deep_echo_tail_stays_bounded(self):
        # hundreds of echo generations at moderate gamma*t: the merged
        # per-generation exponential keeps every partial factor finite
        p = SeriesParams(gamma=0.05, delay=1.0, phi=1.0, n_max=400)
        val = series_solution(p, 100.5)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert abs(val) <= 1.0 + 1e-9


class TestJumpFormula:
    def test_against_integrator(self):
        # first-echo derivative jump equals -gamma e^{i Phi} c(0)
        for gamma, phi in [(0.3, 0.0), (1.0, 2.5)]:
            link = make_link(gamma, 1.0, phi)
            grid = make_grid(1.0, 4.0, 400)
            pulse = constant_pulse(gamma, (0.0, 4.0))
            traj = evolve_single(link, pulse, 1.0, grid, round_trip=(1.0, phi))
            kinks = derivative_kinks(traj, link)
            t1, jump = kinks[0]
            assert t1 == pytest.approx(1.0)
            want = jump_formula(1, gamma, phi, 1.0)
            assert abs(jump - want) < 0.01 * abs(want)

    def test_magnitude_bounds(self):
        gamma, phi = 1.5, 0.9
        link = make_link(gamma, 1.0, phi)
        grid = make_grid(1.0, 8.0, 400)
        pulse = constant_pulse(gamma, (0.0, 8.0))
        traj = evolve_single(link, pulse, 1.0, grid, round_trip=(1.0, phi))
        for _, jump in derivative_kinks(traj, link):
            assert abs(jump) <= gamma * (1.0 + 1e-6)
        for _, jump in population_kinks(traj, link):
            assert abs(jump) <= 2.0 * gamma * (1.0 + 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            jump_formula(0, 1.0, 0.0, 1.0)


class TestEigenfrequencies:
    def test_residuals(self):
        for gamma, delta in [(0.15, 50 * math.pi), (1.5, 50 * math.pi),
                             (0.5, 17.3)]:
            link = make_link(gamma, 1.0, delta)
            lams = eigenfrequencies(link, (delta - 5 * math.pi, delta + 5 * math.pi))
            for lam in lams:
                r = lam - delta - 0.5 * gamma / math.tan(math.fmod(lam, math.pi))
                assert abs(r) < 1e-10 * max(abs(lam), gamma)

    def test_branch_completeness(self):
        # one root per cot branch: brute-force sign scan agrees with solver
        gamma, delta = 0.8, 20.0
        link = make_link(gamma, 1.0, delta)
        lo, hi = 10.0 * math.pi, 20.0 * math.pi
        lams = eigenfrequencies(link, (lo, hi))
        count = 0
        for k in range(10, 20):
            xs = np.linspace(k * math.pi + 1e-6, (k + 1) * math.pi - 1e-6, 10000)
            f = xs - delta - 0.5 * gamma / np.tan(xs)
            count += int(np.sum(np.diff(np.sign(f)) != 0))
        assert len(lams) == count

    def test_translational_symmetry(self):
        # shifting Delta by one FSR shifts the whole ladder by one FSR
        gamma = 0.6
        a = eigenfrequencies(make_link(gamma, 1.0, 30.0), (25.0, 35.0))
        b = eigenfrequencies(make_link(gamma, 1.0, 30.0 + math.pi),
                             (25.0 + math.pi, 35.0 + math.pi))
        np.testing.assert_allclose(b, a + math.pi, rtol=0, atol=1e-9)

    def test_zero_coupling_reduces_to_bare_ladder(self):
        lams = eigenfrequencies(make_link(0.0, 1.0, 7.0), (0.0, 4 * math.pi))
        for lam in lams:
            assert (abs(lam - 7.0) < 1e-12
                    or abs(lam / math.pi - round(lam / math.pi)) < 1e-9)

    def test_resonant_splitting_weak_coupling(self):
        for gamma in (0.001, 0.01):
            link = make_link(gamma, 1.0, 50 * math.pi)
            split = resonant_splitting(link)
            assert split == pytest.approx(2.0 * math.sqrt(gamma / 2.0), rel=0.05)

    def test_splitting_monotone_and_saturating(self):
        gammas = [0.01, 0.1, 1.0, 10.0, 50.0]
        splits = [resonant_splitting(make_link(g, 1.0, 50 * math.pi))
                  for g in gammas]
        assert all(b > a for a, b in zip(splits, splits[1:]))
        assert all(s < math.pi for s in splits)
        assert splits[-1] == pytest.approx(math.pi, rel=0.05)


def _recorded(f):
    """f that appends every argument it is called with to f.calls."""
    def g(x):
        g.calls.append(x)
        return f(x)
    g.calls = []
    return g


def _outcome(solve):
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestBrentq:
    def test_matches_scipy_on_eigen_brackets(self):
        # the brackets eigenfrequencies solves on, over random links and branches
        rng = np.random.default_rng(11)
        for _ in range(1000):
            link = make_link(float(rng.uniform(1e-3, 10.0)), float(rng.uniform(0.2, 3.0)),
                             float(rng.uniform(-30.0, 30.0)))
            fsr = link.fsr
            k = int(rng.integers(-15, 15))
            a, b = k * fsr + 1e-9 * fsr, (k + 1) * fsr - 1e-9 * fsr
            ours, ref = (_recorded(lambda lam: _eigen_residual(lam, link)) for _ in range(2))
            root = _brentq(ours, a, b, 1e-15, 8.9e-16, 200)
            want = brentq(ref, a, b, xtol=1e-15, rtol=8.9e-16, maxiter=200)
            assert root == want and type(root) is type(want)
            assert ours.calls == ref.calls

    def test_errors_match_scipy(self):
        nan = math.nan
        cases = [(lambda x: x * x - 2.0, 0, 3, 3),      # maxiter exhausted
                 (lambda x: x - 5.0, 0.0, 1.0, 100),     # no sign change
                 (lambda x: nan, 0, 1, 100),             # NaN at an end
                 (lambda x: x - 0.5 if x < 0.7 else nan, 0.0, 1.0, 100),
                 (lambda x: x, 0, 1, 100),               # root on an end
                 (lambda x: x - 1.0, 0.0, 1.0, 100)]
        for f, a, b, maxiter in cases:
            got = _outcome(lambda: _brentq(f, a, b, 1e-12, 8.9e-16, maxiter))
            want = _outcome(lambda: brentq(f, a, b, xtol=1e-12, rtol=8.9e-16,
                                           maxiter=maxiter))
            assert got == want


class TestSpectrum:
    def test_normalized_and_peaked_on_eigenfrequencies(self):
        link = make_link(0.15, 1.0, 50 * math.pi)
        w = np.linspace(49.2 * math.pi, 50.8 * math.pi, 4001)
        res = output_spectrum(link, w, broadening=0.02)
        finite = res.spectrum[np.isfinite(res.spectrum)]
        assert np.max(finite) == pytest.approx(1.0)
        # every eigenfrequency in the window sits near a local maximum
        for lam in res.eigenfrequencies:
            if w[10] < lam < w[-10]:
                i = int(np.argmin(np.abs(w - lam)))
                lo, hi = max(0, i - 40), min(len(w), i + 40)
                peak = w[lo + int(np.argmax(res.spectrum[lo:hi]))]
                assert abs(peak - lam) < 0.02 * math.pi

    def test_undamped_pole_dominates_without_broadening(self):
        link = make_link(0.2, 1.0, 50 * math.pi)
        lam = eigenfrequencies(link, (50 * math.pi - math.pi, 50 * math.pi))[-1]
        res = output_spectrum(link, np.array([lam - 0.1, lam, lam + 0.1]))
        assert res.spectrum[1] == pytest.approx(1.0)  # the (near-)pole is the max
        assert res.spectrum[0] < 1e-12 and res.spectrum[2] < 1e-12

    def test_grid_validation(self):
        link = make_link(0.2, 1.0, 0.0)
        with pytest.raises(ValueError):
            output_spectrum(link, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            output_spectrum(link, np.array([]))

    def test_quasi_dark_suppression(self):
        # integrated weight near the emitter line, resonant vs quasi-dark
        # detuning; calibrated threshold (measured ratio ~7)
        def weight(delta):
            link = make_link(0.15, 1.0, delta)
            w = np.linspace(delta - 0.5 * math.pi, delta + 0.5 * math.pi, 2001)
            p = np.abs(output_amplitude(link, w, broadening=0.01)) ** 2
            return np.trapezoid(p, w)

        ratio = weight(50 * math.pi) / weight(50.5 * math.pi)
        assert ratio >= 5.0

    def test_spectrum_scan_rows(self):
        rows = spectrum_scan(0.15, 1.0, [10.0, 11.0], np.linspace(8.0, 12.0, 5))
        assert len(rows) == 10
        assert rows[0][0] == 10.0 and rows[-1][0] == 11.0
