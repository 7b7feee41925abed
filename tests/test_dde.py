import math

import numpy as np
import pytest

from shortlink.analytic import SeriesParams, series_solution
from shortlink.core import constant_pulse, make_grid, make_link
from shortlink.dde import (evolve_pair, evolve_single, output_field,
                           output_field_sum)


def single_run(gamma, phi, t_end=5.0, steps=200):
    """Single-emitter run in the one-delay convention used by the series."""
    link = make_link(gamma, 1.0, phi)
    grid = make_grid(1.0, t_end, steps)
    pulse = constant_pulse(gamma, (0.0, grid.t_end))
    return evolve_single(link, pulse, 1.0, grid, round_trip=(1.0, phi)), grid


class TestSingleEmitter:
    def test_markovian_limit_before_first_echo(self):
        traj, grid = single_run(0.4, 1.0, t_end=0.9)
        t = grid.times()
        np.testing.assert_allclose(traj.c[0], np.exp(-0.2 * t), rtol=1e-10)

    def test_matches_series_solution(self):
        for gamma, phi in [(0.05, 0.0), (0.5, 1.3), (2.0, 4.0)]:
            traj, grid = single_run(gamma, phi, t_end=8.0)
            p = SeriesParams(gamma=gamma, delay=1.0, phi=phi)
            exact = np.array([series_solution(p, t) for t in grid.times()])
            assert np.max(np.abs(traj.c[0] - exact)) < 1e-7

    def test_fourth_order_convergence(self):
        gamma, phi = 0.8, 2.0
        p = SeriesParams(gamma=gamma, delay=1.0, phi=phi)
        errs = []
        for steps in (25, 50, 100):
            traj, grid = single_run(gamma, phi, t_end=4.0, steps=steps)
            exact = np.array([series_solution(p, t) for t in grid.times()])
            errs.append(np.max(np.abs(traj.c[0] - exact)))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 > 3.5 and order2 > 3.5

    def test_round_trip_step_validation(self):
        link = make_link(0.1, 1.0, 0.0)
        grid = make_grid(1.0, 3.0, 10)
        pulse = constant_pulse(0.1, (0.0, 3.0))
        with pytest.raises(ValueError):
            evolve_single(link, pulse, 1.0, grid, round_trip=(0.123, 0.0))

    def test_norm_never_exceeds_one(self):
        for gamma, phi in [(0.1, 0.7), (1.5, 3.0)]:
            traj, _ = single_run(gamma, phi, t_end=10.0)
            assert np.max(np.abs(traj.c[0]) ** 2) <= 1.0 + 1e-9


class TestEchoField:
    def test_recursion_equals_explicit_sum(self):
        link = make_link(0.3, 1.0, 1.1)
        grid = make_grid(1.0, 6.0, 50)
        pulse = constant_pulse(0.3, (0.0, 6.0))
        traj = evolve_pair(link, pulse, pulse, (1.0, 0.0), grid)
        for l in (0, 1):
            for t in (0.0, 1.0, 2.34, 5.96):
                a = output_field(traj, l, t)
                b = output_field_sum(traj, l, t)
                assert a == pytest.approx(b, abs=1e-12)

    def test_vanishes_before_start(self):
        link = make_link(0.3, 1.0, 0.0)
        grid = make_grid(1.0, 2.0, 20)
        pulse = constant_pulse(0.3, (0.0, 2.0))
        traj = evolve_single(link, pulse, 1.0, grid)
        assert output_field(traj, 0, -1.0) == 0j


class TestTwoEmitters:
    def test_emitter_exchange_symmetry(self):
        # swapping initial conditions swaps the trajectories
        link = make_link(0.2, 1.0, 2.0)
        grid = make_grid(1.0, 8.0, 100)
        p = constant_pulse(0.2, (0.0, 8.0))
        a = evolve_pair(link, p, p, (1.0, 0.0), grid)
        b = evolve_pair(link, p, p, (0.0, 1.0), grid)
        np.testing.assert_allclose(a.c[0], b.c[1], atol=1e-14)
        np.testing.assert_allclose(a.c[1], b.c[0], atol=1e-14)

    def test_linearity_in_initial_condition(self):
        link = make_link(0.2, 1.0, 1.0)
        grid = make_grid(1.0, 6.0, 80)
        p = constant_pulse(0.2, (0.0, 6.0))
        z = 0.5 * np.exp(0.7j)
        a = evolve_pair(link, p, p, (1.0, 0.0), grid)
        b = evolve_pair(link, p, p, (z, 0.0), grid)
        np.testing.assert_allclose(b.c, z * a.c, atol=1e-13)

    def test_global_phase_invariance_of_populations(self):
        link = make_link(0.3, 1.0, 0.5)
        grid = make_grid(1.0, 5.0, 60)
        p = constant_pulse(0.3, (0.0, 5.0))
        a = evolve_pair(link, p, p, (1.0, 0.0), grid)
        b = evolve_pair(link, p, p, (np.exp(1.9j), 0.0), grid)
        np.testing.assert_allclose(a.populations(), b.populations(), atol=1e-13)

    def test_decoupled_when_other_pulse_off(self):
        # cross echo needs the partner to emit; an inert partner leaves the
        # active emitter following its own single-emitter dynamics
        link = make_link(0.4, 1.0, 0.0)
        grid = make_grid(1.0, 6.0, 100)
        on = constant_pulse(0.4, (0.0, 6.0))
        off = constant_pulse(0.0, (0.0, 6.0))
        pair = evolve_pair(link, on, off, (1.0, 0.0), grid)
        single = evolve_single(link, on, 1.0, grid)
        np.testing.assert_allclose(pair.c[0], single.c[0], atol=1e-12)
        np.testing.assert_allclose(pair.c[1], 0.0, atol=1e-12)

    def test_sector_identity(self):
        # with equal couplings c1 +- c2 each follow a one-delay single-emitter
        # DDE, round trip (tau, phi) for + and (tau, phi + pi) for -; this
        # checks the cross-echo term against an independent route
        for gamma, phi, steps, t_end in [(0.5, 0.0, 200, 12.0), (0.2, 1.1, 50, 8.3),
                                         (2.0, 4.0, 100, 6.0)]:
            link = make_link(gamma, 1.0, phi)
            grid = make_grid(1.0, t_end, steps)
            p = constant_pulse(gamma, (0.0, grid.t_end))
            pair = evolve_pair(link, p, p, (1.0, 0.0), grid)
            plus = evolve_single(link, p, 1.0, grid, round_trip=(1.0, phi)).c[0]
            minus = evolve_single(link, p, 1.0, grid, round_trip=(1.0, phi + math.pi)).c[0]
            np.testing.assert_allclose(pair.c[0], 0.5 * (plus + minus), rtol=0, atol=1e-12)
            np.testing.assert_allclose(pair.c[1], 0.5 * (plus - minus), rtol=0, atol=1e-12)

    def test_rabi_exchange_time(self):
        # joint oscillation at Omega = sqrt(gamma0/tau): first transfer
        # maximum close to T = pi/Omega in the weak-coupling regime
        g = 0.1
        link = make_link(g, 1.0, 0.0)
        grid = make_grid(1.0, 14.0, 100)
        p = constant_pulse(g, (0.0, 14.0))
        traj = evolve_pair(link, p, p, (1.0, 0.0), grid)
        pop2 = traj.populations()[1]
        t_peak = traj.t[int(np.argmax(pop2))]
        assert t_peak == pytest.approx(math.pi / math.sqrt(g), rel=0.05)
        assert np.max(pop2) > 0.95

    def test_initial_norm_validation(self):
        link = make_link(0.1, 1.0, 0.0)
        grid = make_grid(1.0, 2.0, 20)
        p = constant_pulse(0.1, (0.0, 2.0))
        with pytest.raises(ValueError):
            evolve_pair(link, p, p, (1.0, 0.5), grid)
