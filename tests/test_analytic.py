import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from shortlink.analytic import (SeriesParams, _brentq, _eigen_residual,
                                eigenfrequencies, jump_formula,
                                output_amplitude, output_spectrum,
                                resonant_splitting, series_solution,
                                spectrum_scan)
from shortlink.core import constant_pulse, make_grid, make_link, phase_factor
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
        # 600 echo generations at gamma*t = 0.6, well inside the gamma*t domain
        p = SeriesParams(gamma=0.01, delay=0.1, phi=0.0)
        with pytest.raises(ValueError, match=r"^t/delay = 600\.0 exceeds the echo truncation "
                                             r"order n_max=500$"):
            series_solution(p, 60.0)
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
        p = SeriesParams(gamma=0.05, delay=1.0, phi=1.0)
        val = series_solution(p, 100.5)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert abs(val) <= 1.0 + 1e-9


def _reference_series(p, t, n_max=500):
    """The series loop as first written (numpy scalars when t is one, a
    phase_factor call and integer recurrence factors per term): the
    reference route series_solution must match bit for bit.  n_max was a
    field of p; series_solution's is the constant 500."""
    if t < 0:
        raise ValueError("series solution is defined for t >= 0")
    g, d = p.gamma, p.delay
    if not (g * t <= 40.0):
        raise ValueError(f"gamma*t = {g * t} is outside the series solution's "
                         "gamma*t < 40 domain")
    n_t = int(math.floor(t / d + 1e-12))
    if n_t > n_max:
        raise ValueError(
            f"t/delay = {t / d:.1f} exceeds the echo truncation order n_max={n_max}"
        )
    total = complex(math.exp(-0.5 * g * t))
    for n in range(1, n_t + 1):
        dt = t - n * d
        if dt < 0:
            break
        x = -g * dt
        scale = math.exp(-0.5 * g * dt)
        phase = phase_factor(p.phi, n)
        term = x * scale
        inner = term
        for m in range(1, n):
            term *= x * (n - m) / (m * (m + 1))
            inner += term
        total += phase * inner
    return total


def _series_outcome(f, p, t):
    try:
        c = f(p, t)
    except Exception as e:  # noqa: BLE001 - the type and text are compared
        return type(e), str(e)
    return type(c), c.real.hex(), c.imag.hex()


class TestSeriesBitIdentity:
    # (gamma, delay, phi, n_max, times); n_max is the reference route's
    # truncation order, which none of a case's times exceed
    CASES = [
        (0.7, 1.0, 2.0, 500, list(make_grid(1.0, 10.0, 40).times())),
        (1.3, 1.0, 0.4, 500, [0, 1, 2, 3, 7, 1.0, 4.0, 4.5, 5 - 1e-13, 5 + 1e-13]),
        (0.9, 1.0, 1.1, 1, [0.0, 0.5, 1.0, 1.5, np.float64(1.999)]),
        (0.05, 1.0, 1.0, 500, [399.7, 400.0, np.float64(400.3), 401]),
        (0.0, 1.0, 0.8, 500, [0.0, 2.5, 17, np.float64(120.25), 499.9]),
        (0.4, 1.0, -3.7, 500, [3.3, np.float64(8.8), 12]),
        (0.4, 1.0, 1e6, 500, [3.3, np.float64(8.8), 12]),
        (0.6, 0.37, 2.2, 500, list(make_grid(0.37, 6.0, 25).times()) + [0.74, 3]),
        (0.25, 2.5, -0.9, 500, [2.5, np.float64(5.0), 7.49, 30, 159.9]),
    ]

    @pytest.mark.parametrize("gamma, delay, phi, n_max, times", CASES)
    def test_matches_reference_route(self, gamma, delay, phi, n_max, times):
        p = SeriesParams(gamma=gamma, delay=delay, phi=phi)
        reference = lambda p, t: _reference_series(p, t, n_max)
        for t in times:
            for tt in {type(t): t, float: float(t), np.float64: np.float64(t)}.values():
                got = _series_outcome(series_solution, p, tt)
                assert got == _series_outcome(reference, p, tt), (t, type(tt))
                assert got[0] is complex

    def test_errors_match_reference_route(self):
        shallow = SeriesParams(gamma=0.5, delay=1.0, phi=0.3)
        deep = SeriesParams(gamma=0.01, delay=0.1, phi=0.3)  # past 500 generations at gamma*t < 1
        above = math.nextafter(80.0, math.inf)
        cases = [(shallow, t) for t in (-0.1, np.float64(-0.1), -1, math.nan, np.float64(math.nan),
                                        math.inf, -math.inf, above, np.float64(above), "1.5")]
        cases += [(deep, t) for t in (50.1, np.float64(60.5), 70)]
        for p, t in cases:
            got = _series_outcome(series_solution, p, t)
            assert got == _series_outcome(_reference_series, p, t), repr(t)
            assert got[0] in (ValueError, TypeError)

    def test_phase_ladder_is_not_part_of_identity(self):
        p = SeriesParams(gamma=0.5, delay=1.0, phi=0.3)
        fresh = SeriesParams(gamma=0.5, delay=1.0, phi=0.3)
        series_solution(p, 7.5)
        assert len(p._phases) == 8 and fresh._phases == ()
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert dataclasses.replace(p)._phases == ()
        q = dataclasses.replace(p, phi=1.3)
        assert q._phases == () and _series_outcome(series_solution, q, 7.5) == _series_outcome(
            _reference_series, q, 7.5)

    def test_import_builds_no_coefficient_table(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = ("import shortlink, shortlink.cli; from shortlink import analytic; "
                "print(len(analytic._RECURRENCE))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"


class TestJumpFormula:
    def test_against_integrator(self):
        # first-echo derivative jump equals -gamma e^{i Phi} c(0)
        for gamma, phi in [(0.3, 0.0), (1.0, 2.5)]:
            link = make_link(gamma, 1.0, phi)
            grid = make_grid(1.0, 4.0, 400)
            pulse = constant_pulse(gamma, (0.0, 4.0))
            traj = evolve_single(link, pulse, 1.0, grid, round_trip=(1.0, phi))
            kinks = derivative_kinks(traj)
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
        for _, jump in derivative_kinks(traj):
            assert abs(jump) <= gamma * (1.0 + 1e-6)
        for _, jump in population_kinks(traj):
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

    def test_empty_window_rejected(self):
        link = make_link(0.5, 1.0, 3.0)
        for window in ((2.0, 2.0), (3.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="^empty eigenfrequency window$"):
                eigenfrequencies(link, window)

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

    def test_bisect_fallback_matches_scipy(self):
        # x**9 is flat near its root, so steps that fail to shrink |f| fall
        # back to bisection
        ours, ref = (_recorded(lambda x: x ** 9 - 1e-9) for _ in range(2))
        root = _brentq(ours, 0.0, 2.0, 1e-12, 8.9e-16, 100)
        assert root == brentq(ref, 0.0, 2.0, xtol=1e-12, rtol=8.9e-16, maxiter=100)
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

    def test_broadening_must_be_finite(self):
        link = make_link(0.2, 1.0, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^broadening must be finite, got {bad}$"):
                output_amplitude(link, np.array([0.5, 1.0]), bad)
            with pytest.raises(ValueError, match="broadening must be finite"):
                list(spectrum_scan(0.2, 1.0, [0.0], np.array([0.5, 1.0]), bad))

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
        rows = list(spectrum_scan(0.15, 1.0, [10.0, 11.0], np.linspace(8.0, 12.0, 5)))
        assert len(rows) == 10
        assert rows[0][0] == 10.0 and rows[-1][0] == 11.0

    def test_spectrum_scan_is_lazy_and_labels_each_value_once(self):
        labelled = []

        def label(x):
            labelled.append(x)
            return x / math.pi

        omegas = np.linspace(8.0, 12.0, 5)
        rows = spectrum_scan(0.15, 1.0, [10.0, 11.0], omegas, 0.02, label=label)
        assert labelled == []  # nothing runs before the first row is asked for
        rows = list(rows)
        assert labelled == [*omegas.tolist(), 10.0, 11.0]
        for i, d in enumerate((10.0, 11.0)):
            power = output_spectrum(make_link(0.15, 1.0, d), omegas, 0.02).spectrum
            assert rows[5 * i:5 * i + 5] == list(zip([d / math.pi] * 5,
                                                     (omegas / math.pi).tolist(), power.tolist()))
