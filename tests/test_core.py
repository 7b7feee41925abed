import math

import numpy as np
import pytest

from shortlink.core import (LinkParams, PulseProfile, constant_pulse,
                            eval_pulse, make_grid, make_link, phase_factor,
                            sampled_pulse, sin2_pulse, tanh_pulse)


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
        assert p(2.5) == 0.3
        assert p(-0.1) == 0.0
        assert p(5.1) == 0.0

    def test_sin2_endpoints(self):
        p = sin2_pulse(1.0, 10.0)
        assert p(0.0) == 0.0
        assert p(10.0) == pytest.approx(1.0)
        assert p(5.0) == pytest.approx(0.5)

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
        assert p(5.0) == pytest.approx(0.5 * g0)
        pm = tanh_pulse(g0, 5.0, (0.0, 10.0), mirror_about=5.0)
        t = np.linspace(0.0, 10.0, 41)
        np.testing.assert_allclose(eval_pulse(pm, t), eval_pulse(p, 10.0 - t),
                                   rtol=0, atol=1e-15)

    def test_cap_never_exceeded(self):
        for p in (sin2_pulse(0.7, 3.0), tanh_pulse(0.7, 1.0, (0.0, 9.0)),
                  sampled_pulse([0.0, 1.0, 2.0], [0.1, 0.9, 0.2])):
            t = np.linspace(-1.0, 10.0, 500)
            assert np.max(eval_pulse(p, t)) <= p.gamma_max + 1e-15

    def test_sampled_validation(self):
        with pytest.raises(ValueError):
            sampled_pulse([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            PulseProfile("wedge", {}, (0.0, 1.0))


class TestGrid:
    def test_alignment(self):
        g = make_grid(0.5, 3.2, 100)
        assert g.h == 0.5 / 100
        assert g.steps_per_tau == 100
        # t_end rounded up to a node and tau an exact multiple of h
        assert g.t_end >= 3.2 - 1e-12
        assert g.n_steps * g.h == pytest.approx(g.t_end)

    def test_index_of(self):
        g = make_grid(1.0, 4.0, 10)
        assert g.index_of(0.0) == 0
        assert g.index_of(2.5) == 25
        with pytest.raises(ValueError):
            g.index_of(0.123)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 5.0, 3)
        with pytest.raises(ValueError):
            make_grid(1.0, 0.0, 10)
        for tau, t_end in ((1.0, math.inf), (1.0, math.nan), (math.nan, 1.0),
                           (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0)):
            with pytest.raises(ValueError):
                make_grid(tau, t_end, 10)


def test_trajectory_amplitude_interpolation():
    from shortlink.core import TimeGrid, Trajectory

    grid = make_grid(1.0, 2.0, 10)
    t = grid.times()
    # cubic interpolation must be exact on a cubic polynomial
    vals = (0.3 + 0.2j) * t**3 - t**2 + (1.0 - 0.5j) * t + 2.0
    traj = Trajectory(grid=grid, link=make_link(0.1, 1.0, 0.0),
                      c=np.array([vals]), gamma_samples=np.zeros((1, t.size)),
                      b_out=np.zeros((1, t.size), dtype=complex),
                      echo_delay_steps=10, echo_phase=0.0)
    for x in (0.33, 1.234, 1.999):
        want = (0.3 + 0.2j) * x**3 - x**2 + (1.0 - 0.5j) * x + 2.0
        assert traj.amplitude_at(0, x) == pytest.approx(want, rel=1e-12)
    assert traj.amplitude_at(0, 1.0) == vals[10]

    # fewer than 3 steps: no room for the 4-node stencil, nodes stay exact
    from shortlink.protocols import ProtocolSpec, run_protocol

    with pytest.raises(ValueError, match="at least 3 grid steps"):
        run_protocol(ProtocolSpec("swap", 0.2, 0.007), make_link(0.2, 1.0, 0.0))
    short = run_protocol(ProtocolSpec("swap", 0.2, 0.01), make_link(0.2, 1.0, 0.0))[0]
    assert short.amplitude_at(0, 0.005) == short.c[0, 1]
