import math
import re
import warnings

import numpy as np
import pytest

from shortlink.core import (LinkParams, PulseProfile, constant_pulse,
                            eval_pulse, make_grid, make_link, phase_factor,
                            sin2_pulse, tanh_pulse)


def test_make_link_validation():
    link = make_link(0.5, 2.0, 3.0)
    assert link.phi == 6.0
    assert link.fsr == pytest.approx(math.pi / 2.0)
    with pytest.raises(ValueError):
        make_link(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        make_link(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_link(float("nan"), 1.0, 1.0)
    # delta and tau finite, 2*delta*tau not: phase_factor's fmod(inf, 2 pi)
    # once raised "math domain error" in the first run
    for delta, tau in ((5e307 * math.pi, 1.0), (-1e300, 1e10)):
        with pytest.raises(ValueError, match=re.escape(
                f"round-trip phase 2*delta*tau must be finite, got {2.0 * (delta * tau)}")):
            make_link(0.1, tau, delta)
    assert make_link(0.1, 1.0, 8e307).phi == 8e307  # 2*phi = 1.6e308 is finite


def test_phase_factor_large_argument():
    # huge multiples of phi must not lose precision through naive n*phi
    phi = 50.0 * math.pi + 0.3
    z = phase_factor(phi, 1001)
    expected = np.exp(1j * math.fmod(1001 * phi, 2.0 * math.pi))
    assert z == pytest.approx(expected)
    assert abs(z) == pytest.approx(1.0, abs=1e-15)


class TestPulses:
    def test_constant(self):
        p = constant_pulse(0.3, (0.0, 5.0))
        assert eval_pulse(p, 2.5) == 0.3
        assert eval_pulse(p, -0.1) == 0.0
        assert eval_pulse(p, 5.1) == 0.0

    def test_sin2_endpoints(self):
        p = sin2_pulse(1.0, 10.0)
        assert p.support == (0.0, 10.0)  # always (0, duration)
        assert eval_pulse(p, 0.0) == 0.0
        assert eval_pulse(p, 10.0) == pytest.approx(1.0)
        assert eval_pulse(p, 5.0) == pytest.approx(0.5)

    def test_sin2_mirror_identity_on_grid(self):
        # gamma2(t) must equal gamma1(T - t) exactly at grid nodes
        T = 7.0
        p1 = sin2_pulse(0.8, T)
        p2 = sin2_pulse(0.8, T, mirror=True)
        t = np.linspace(0.0, T, 57)
        np.testing.assert_array_equal(eval_pulse(p2, t), eval_pulse(p1, T - t))

    def test_tanh_midpoint_and_mirror(self):
        g0 = 0.4
        p = tanh_pulse(g0, 5.0, (0.0, 10.0))
        assert eval_pulse(p, 5.0) == pytest.approx(0.5 * g0)
        pm = tanh_pulse(g0, 5.0, (0.0, 10.0), mirror_about=5.0)
        t = np.linspace(0.0, 10.0, 41)
        np.testing.assert_allclose(eval_pulse(pm, t), eval_pulse(p, 10.0 - t),
                                   rtol=0, atol=1e-15)

    def test_cap_never_exceeded(self):
        for p in (sin2_pulse(0.7, 3.0), tanh_pulse(0.7, 1.0, (0.0, 9.0))):
            t = np.linspace(-1.0, 10.0, 500)
            assert np.max(eval_pulse(p, t)) <= p.params["gamma0"] + 1e-15

    def test_sampled_validation(self):
        # a pulse is one of the three analytic shapes; "sampled" is gone too
        for shape in ("wedge", "sampled"):
            with pytest.raises(ValueError, match=f"^unknown pulse shape '{shape}'$"):
                PulseProfile(shape, {}, (0.0, 1.0))

    @pytest.mark.parametrize("support", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.inf)])
    def test_bad_support_rejected(self, support):
        with pytest.raises(ValueError, match="^invalid support"):
            constant_pulse(0.1, support)

    @pytest.mark.parametrize("make, message", [
        (lambda: constant_pulse(-0.1, (0.0, 1.0)), "gamma0 must be >= 0, got -0.1"),
        (lambda: constant_pulse(math.inf, (0.0, 1.0)), "gamma0 must be finite, got inf"),
        (lambda: sin2_pulse(-0.5, 2.0), "gamma0 must be >= 0, got -0.5"),
        (lambda: sin2_pulse(math.nan, 2.0), "gamma0 must be finite, got nan"),
        (lambda: sin2_pulse(0.5, 0.0), "sin2 duration must be finite and > 0, got 0.0"),
        (lambda: PulseProfile("sin2", {"gamma0": 0.5, "duration": -1.0}, (0.0, 1.0)),
         "sin2 duration must be finite and > 0, got -1.0"),
        (lambda: PulseProfile("sin2", {"gamma0": 0.5, "duration": math.inf}, (0.0, 1.0)),
         "sin2 duration must be finite and > 0, got inf"),
        (lambda: sin2_pulse(0.5, -1.0), "invalid support (0.0, -1.0)"),
        (lambda: tanh_pulse(-1.0, 0.5, (0.0, 1.0)), "gamma0 must be >= 0, got -1.0"),
        (lambda: tanh_pulse(-math.inf, 0.5, (0.0, 1.0)), "gamma0 must be finite, got -inf"),
        (lambda: tanh_pulse(0.5, math.nan, (0.0, 1.0)), "tanh center must be finite, got nan"),
        (lambda: tanh_pulse(0.5, 0.5, (0.0, 1.0), mirror_about=math.inf),
         "mirror_about must be finite, got inf"),
    ])
    def test_parameters_fail_loudly(self, make, message):
        # sin2_pulse(-0.5, 2.0) sampled -0.5 at t = 0, where sin^2 = 0, and
        # sin2_pulse(0.5, 0.0) sampled NaN with three RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make()

    def test_sampling_matches_expression_as_first_written(self):
        # the in-place sampling against the plain expressions, clip and
        # where included, bit for bit: each analytic shape, mirrored or
        # not, at and beyond both support ends, NaN, inf and scalar t
        a, b = 0.3, 7.3
        pulses = [constant_pulse(0.7, (a, b)), constant_pulse(-0.0, (a, b)),
                  PulseProfile("constant", {"gamma0": 0.7}, (a, b), mirror_about=3.8),
                  PulseProfile("sin2", {"gamma0": 0.7, "duration": b - a}, (a, b)),
                  sin2_pulse(0.7, 7.0, mirror=True),
                  PulseProfile("sin2", {"gamma0": 1e300, "duration": 3.1}, (a, b)),
                  sin2_pulse(0.0, 2.0),
                  tanh_pulse(0.7, 2.2, (a, b)), tanh_pulse(0.7, 2.2, (a, b), mirror_about=3.8),
                  tanh_pulse(1e300, -4.0, (a, b)), tanh_pulse(-0.0, 2.2, (a, b))]
        t = np.concatenate((np.linspace(-1.0, 8.0, 1001), [a, b, np.nextafter(a, -1.0),
                            np.nextafter(b, 9.0), 0.0, -0.0, np.nan, np.inf, -np.inf]))
        for p in pulses:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # inf t makes sin(inf) in both
                got, want = eval_pulse(p, t), _reference_eval_pulse(p, t)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            for x in (a, b, 0.5 * (a + b), -0.0, np.float64(4.0), 9):
                got, want = eval_pulse(p, x), _reference_eval_pulse(p, x)
                assert type(got) is float and got.hex() == want.hex()


def _reference_eval_pulse(p, t):
    """eval_pulse's analytic shapes as first written: plain expressions,
    clipped to [0, gamma0], then zeroed outside the support."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    a, b = p.support
    inside = (t_arr >= a) & (t_arr <= b)
    te = t_arr if p.mirror_about is None else 2.0 * p.mirror_about - t_arr
    if p.shape == "constant":
        g = np.full_like(t_arr, p.params["gamma0"])
    elif p.shape == "sin2":
        g0 = p.params["gamma0"]
        T = p.params["duration"]
        g = g0 * np.sin(0.5 * math.pi * (te - a) / T) ** 2
    else:
        g0 = p.params["gamma0"]
        tc = p.params["center"]
        g = 0.5 * g0 * (1.0 + np.tanh(0.5 * g0 * (te - tc)))
    out = np.where(inside, np.clip(g, 0.0, p.params["gamma0"]), 0.0)
    return float(out[0]) if scalar else out


class TestGrid:
    def test_alignment(self):
        g = make_grid(0.5, 3.2, 100)
        assert g.h == 0.5 / 100
        assert g.steps_per_tau == 100
        # t_end rounded up to a node and tau an exact multiple of h
        assert g.t_end >= 3.2 - 1e-12
        assert g.n_steps * g.h == pytest.approx(g.t_end)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 5.0, 3)
        with pytest.raises(ValueError):
            make_grid(1.0, 0.0, 10)
        for tau, t_end in ((1.0, math.inf), (1.0, math.nan), (math.nan, 1.0),
                           (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, 1e-12)):
            with pytest.raises(ValueError):
                make_grid(tau, t_end, 10)


def test_trajectory_amplitude_interpolation():
    from shortlink.core import TimeGrid, Trajectory

    grid = make_grid(1.0, 2.0, 10)
    t = grid.times()
    # cubic interpolation must be exact on a cubic polynomial
    vals = (0.3 + 0.2j) * t**3 - t**2 + (1.0 - 0.5j) * t + 2.0
    traj = Trajectory(grid=grid, c=np.array([vals]), echo_delay_steps=10)
    for x in (0.33, 1.234, 1.999):
        want = (0.3 + 0.2j) * x**3 - x**2 + (1.0 - 0.5j) * x + 2.0
        assert traj.amplitude_at(0, x) == pytest.approx(want, rel=1e-12)
    assert traj.amplitude_at(0, 1.0) == vals[10]
    for x in (-0.01, 2.01, math.nan):
        with pytest.raises(ValueError, match="outside trajectory range"):
            traj.amplitude_at(0, x)

    # fewer than 3 steps: no room for the 4-node stencil, nodes stay exact
    from shortlink.protocols import ProtocolSpec, run_protocol

    with pytest.raises(ValueError, match="at least 3 grid steps"):
        run_protocol(ProtocolSpec("swap", 0.2, 0.007), make_link(0.2, 1.0, 0.0))
    short = run_protocol(ProtocolSpec("swap", 0.2, 0.01), make_link(0.2, 1.0, 0.0))[0]
    assert short.amplitude_at(0, 0.005) == short.c[0, 1]
