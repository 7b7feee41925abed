import math

import numpy as np
import pytest

from shortlink.core import constant_pulse, make_grid, make_link
from shortlink.dde import evolve_pair, evolve_single
from shortlink.ww import build_modes, evolve_ww, unitarity_defect


class TestBuildModes:
    def test_centered_ladder(self):
        link = make_link(0.1, 1.0, 50 * math.pi)
        m = build_modes(link, 11)
        assert m.n_modes == 11
        assert m.indices[5] == 50  # centered on the resonant mode
        np.testing.assert_allclose(m.omegas, m.indices * math.pi)
        np.testing.assert_array_equal(m.parity, (-1.0) ** m.indices)

    def test_clamped_at_first_mode(self):
        # a wide ladder at low detuning starts at the first physical mode
        link = make_link(0.1, 1.0, 5 * math.pi)
        m = build_modes(link, 401)
        assert m.indices[0] == 1
        assert m.n_modes == 401

    def test_odd_validation(self):
        link = make_link(0.1, 1.0, 10.0)
        with pytest.raises(ValueError):
            build_modes(link, 10)
        with pytest.raises(ValueError):
            build_modes(link, -3)


def _run_pair(gamma, delta, n_modes, t_end, steps):
    link = make_link(gamma, 1.0, delta)
    grid = make_grid(1.0, t_end, steps)
    pulse = constant_pulse(gamma, (0.0, grid.t_end))
    modes = build_modes(link, n_modes)
    return evolve_ww(link, modes, (pulse, pulse), (1.0, 0.0), grid), grid


class TestEvolveWW:
    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            _run_pair(0.1, 50 * math.pi, 401, 2.0, steps=100)

    def test_unitarity(self):
        traj, _ = _run_pair(0.1, 50 * math.pi, 41, 8.0, steps=400)
        assert unitarity_defect(traj) < 1e-6

    def test_matches_dde_two_emitters(self):
        traj, grid = _run_pair(0.2, 50 * math.pi, 81, 6.0, steps=800)
        link = make_link(0.2, 1.0, 50 * math.pi)
        pulse = constant_pulse(0.2, (0.0, grid.t_end))
        dde = evolve_pair(link, pulse, pulse, (1.0, 0.0), grid)
        dev = np.max(np.abs(traj.populations() - dde.populations()))
        assert dev < 2e-2
        ph = np.max(np.abs(traj.photon - dde.photon_number()))
        assert ph < 2e-2

    def test_matches_dde_single_emitter(self):
        link = make_link(0.3, 1.0, 50 * math.pi)
        grid = make_grid(1.0, 5.0, 800)
        on = constant_pulse(0.3, (0.0, 5.0))
        off = constant_pulse(0.0, (0.0, 5.0))
        modes = build_modes(link, 81)
        ww = evolve_ww(link, modes, (on, off), (1.0, 0.0), grid)
        dde = evolve_single(link, on, 1.0, grid)
        assert np.max(np.abs(ww.populations()[0] - dde.populations()[0])) < 2e-2

    def test_initial_norm_validation(self):
        link = make_link(0.1, 1.0, 50 * math.pi)
        grid = make_grid(1.0, 1.0, 400)
        p = constant_pulse(0.1, (0.0, 1.0))
        with pytest.raises(ValueError, match="single-excitation"):
            evolve_ww(link, build_modes(link, 5), (p, p), (1.0, 0.9), grid)
        for c0 in ((math.nan, 0.0), (0.5, complex(0.0, math.inf))):
            with pytest.raises(ValueError, match="finite"):
                evolve_ww(link, build_modes(link, 5), (p, p), c0, grid)
