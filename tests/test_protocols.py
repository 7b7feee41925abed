import dataclasses
import math

import numpy as np
import pytest

import shortlink.protocols
from shortlink.core import eval_pulse, make_grid, make_link
from shortlink.dde import evolve_pair
from shortlink.protocols import (DarkBrightState, ProtocolSpec, czkm_bound,
                                 czkm_exact_error, dark_bright, fidelity,
                                 loss_error, make_pulses, photon_integral,
                                 run_protocol)
from shortlink.sweep import loss_scan

TAU = 1.0


def link_for(g):
    return make_link(g, TAU, 0.0)


class TestMakePulses:
    def test_swap_constant(self):
        p1, p2 = make_pulses(ProtocolSpec("swap", 0.3, 10.0), link_for(0.3))
        t = np.linspace(0.0, 10.0, 21)
        np.testing.assert_array_equal(eval_pulse(p1, t), 0.3)
        np.testing.assert_array_equal(eval_pulse(p2, t), 0.3)

    def test_stirap_counterintuitive_order(self):
        p1, p2 = make_pulses(ProtocolSpec("stirap", 1.0, 20.0), link_for(1.0))
        assert eval_pulse(p1, 0.0) == 0.0 and eval_pulse(p2, 0.0) == pytest.approx(1.0)
        assert eval_pulse(p1, 20.0) == pytest.approx(1.0) and eval_pulse(p2, 20.0) == 0.0
        # mirror identity on the grid
        t = np.linspace(0.0, 20.0, 81)
        np.testing.assert_array_equal(eval_pulse(p2, t), eval_pulse(p1, 20.0 - t))

    def test_czkm_complementarity(self):
        # the shifted couplings sum to gamma0 exactly: gamma1(t) + gamma2(t+tau)
        g0, T = 0.4, 30.0
        p1, p2 = make_pulses(ProtocolSpec("czkm", g0, T), link_for(g0))
        t = np.linspace(0.0, T - TAU, 301)
        total = eval_pulse(p1, t) + eval_pulse(p2, t + TAU)
        np.testing.assert_allclose(total, g0, rtol=0, atol=1e-12)

    def test_czkm_receiver_center(self):
        g0, T = 0.4, 30.0
        _, p2 = make_pulses(ProtocolSpec("czkm", g0, T), link_for(g0))
        assert eval_pulse(p2, 0.5 * T + 0.5 * TAU) == pytest.approx(0.5 * g0)

    def test_resource_cap(self):
        for kind, T in (("swap", 8.0), ("stirap", 8.0), ("czkm", 8.0)):
            p1, p2 = make_pulses(ProtocolSpec(kind, 0.7, T), link_for(0.7))
            t = np.linspace(-1.0, T + 1.0, 1000)
            assert np.max(eval_pulse(p1, t)) <= 0.7 + 1e-15
            assert np.max(eval_pulse(p2, t)) <= 0.7 + 1e-15

    def test_validation(self):
        for kind in ("teleport", "shaped"):
            with pytest.raises(ValueError):
                ProtocolSpec(kind, 0.1, 1.0)
        with pytest.raises(ValueError):
            make_pulses(ProtocolSpec("czkm", 0.1, 0.5), link_for(0.1))

    @pytest.mark.parametrize("gamma0, T", [(math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan),
                                           (0.1, math.inf), (0.0, 1.0), (0.1, -1.0)])
    def test_spec_needs_finite_positive_coupling_and_duration(self, gamma0, T):
        # NaN fails the comparisons, so it is rejected with the rest
        with pytest.raises(ValueError, match="^need gamma0 > 0 and duration > 0$"):
            ProtocolSpec("swap", gamma0, T)


class TestCZKMError:
    def test_matches_full_dde(self):
        for g, T in [(0.1, 40.0), (1.0, 10.0)]:
            link = link_for(g)
            spec = ProtocolSpec("czkm", g, T)
            _, rec = run_protocol(spec, link)
            assert czkm_exact_error(g, TAU, T) == pytest.approx(
                rec["error"], abs=1e-6)

    def test_never_below_bound(self):
        for g in (0.05, 0.5, 2.0):
            for T in (3.0, 10.0, 30.0):
                assert czkm_exact_error(g, TAU, T) >= czkm_bound(g, TAU, T)

    def test_long_duration_limit(self):
        assert czkm_exact_error(0.5, TAU, 120.0) < 1e-9

    def test_asymptotic_form(self):
        # eps ~ 2 e^{-g T_eff/2} (1 + Re beta) at gamma0*T_eff = 20
        from shortlink.protocols import bright_response
        g, T = 0.5, 41.0
        t_eff = T - TAU
        beta = bright_response(g, TAU, t_eff)
        approx = 2.0 * math.exp(-0.5 * g * t_eff) * (1.0 + beta.real)
        exact = czkm_exact_error(g, TAU, T)
        assert approx == pytest.approx(exact, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            czkm_exact_error(0.1, TAU, 0.5)
        with pytest.raises(ValueError):
            czkm_bound(0.1, TAU, 1.0)


@pytest.fixture(scope="module")
def czkm_run():
    g, T = 0.1, 200.0
    link = link_for(g)
    spec = ProtocolSpec("czkm", g, T)
    pulses = make_pulses(spec, link)
    grid = make_grid(TAU, T, 200)
    traj = evolve_pair(link, pulses[0], pulses[1], (1.0, 0.0), grid)
    return traj, pulses, link


class TestDarkBright:
    def test_dark_amplitude_constant(self, czkm_run):
        traj, pulses, link = czkm_run
        db = dark_bright(traj, pulses, link)
        assert db.drift() < 1e-6
        assert db.d[0].real == pytest.approx(math.sqrt(0.5 * (1.0 + db.u)),
                                             rel=1e-9)

    def test_rotation_identity(self, czkm_run):
        traj, pulses, link = czkm_run
        db = dark_bright(traj, pulses, link)
        lhs = np.abs(db.d) ** 2 + np.abs(db.b) ** 2
        M = traj.grid.steps_per_tau
        rhs = np.abs(traj.c[0, :-M]) ** 2 + np.abs(traj.c[1, M:]) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("T", [0.5, TAU])
    def test_run_no_longer_than_tau_rejected(self, T):
        link = link_for(0.1)
        pulses = make_pulses(ProtocolSpec("swap", 0.1, T), link)
        traj = evolve_pair(link, *pulses, (1.0, 0.0), make_grid(TAU, T, 200))
        with pytest.raises(ValueError, match="^trajectory shorter than one traversal time$"):
            dark_bright(traj, pulses, link)

    def test_trivial_substitution(self):
        # c1=1, c2bar=0, gamma1=0, gamma2bar=gamma0 -> d=1, b=0
        state = DarkBrightState(t=np.array([0.0]), d=np.array([1.0 + 0j]),
                                b=np.array([0.0 + 0j]), u=0.5, t_eff=1.0)
        assert state.drift() == 0.0


def test_real_run_reads_as_its_complex_twin():
    # a real problem's c is float; each reader of it gives what it gives on
    # the same amplitudes as complex, bit for bit: interpolation at 1000
    # off-node times, populations, photons, fidelity at an off-node T and
    # the dark/bright rotation
    g, T = 0.5, 9.37
    link = link_for(g)
    pulses = make_pulses(ProtocolSpec("czkm", g, T), link)
    traj = evolve_pair(link, *pulses, (1.0, 0.0), make_grid(TAU, T, 200))
    twin = dataclasses.replace(traj, c=traj.c.astype(complex))
    assert traj.c.dtype == float

    def same(x, y):
        x, y = np.atleast_1d(x), np.atleast_1d(y)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))

    ts = np.random.default_rng(5).uniform(0.0, traj.grid.t_end, 1000)
    assert np.all(np.abs(ts / traj.grid.h - np.round(ts / traj.grid.h)) > 1e-9)
    for l in (0, 1):
        same(np.array([traj.amplitude_at(l, t) for t in ts]),
             np.array([twin.amplitude_at(l, t) for t in ts]))
    same(traj.populations(), twin.populations())
    same(traj.photon_number(), twin.photon_number())
    same(fidelity(traj, T), fidelity(twin, T))
    db, db_twin = dark_bright(traj, pulses, link), dark_bright(twin, pulses, link)
    for f in dataclasses.fields(db):
        same(getattr(db, f.name), getattr(db_twin, f.name))


class TestLossAndRecords:
    def test_loss_zero_cases(self):
        g, T = 0.2, 10.0
        link = link_for(g)
        traj, _ = run_protocol(ProtocolSpec("swap", g, T), link)
        n_int = photon_integral(traj)
        assert loss_error(n_int, 0.0) == 0.0
        for kappa in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
                loss_error(n_int, kappa)

    @pytest.mark.parametrize("kappa", [-1.0, math.nan, math.inf])
    def test_bad_kappa_fails_before_any_run(self, monkeypatch, kappa):
        runs = []
        monkeypatch.setattr(shortlink.protocols, "evolve_pair",
                            lambda *a, **k: runs.append(a))
        with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
            run_protocol(ProtocolSpec("swap", 0.2, 10.0), link_for(0.2), kappa=kappa)
        with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
            loss_scan([0.2, 0.5], kappa_tau=kappa, protocols=("swap", "czkm"))
        assert runs == []

    def test_record_fields(self):
        g, T = 0.2, 10.0
        traj, rec = run_protocol(ProtocolSpec("swap", g, T), link_for(g),
                                 kappa=0.01)
        assert rec["fidelity"] == pytest.approx(fidelity(traj, T))
        assert rec["loss_error"] == pytest.approx(
            1.0 - math.exp(-0.01 * photon_integral(traj)))
        assert 0.0 <= rec["error"] <= 1.0
        assert rec["gamma0_tau"] == pytest.approx(0.2)

    def test_fidelity_global_phase_invariance(self):
        g, T = 0.2, 10.0
        link = link_for(g)
        spec = ProtocolSpec("swap", g, T)
        p1, p2 = make_pulses(spec, link)
        grid = make_grid(TAU, T, 200)
        a = evolve_pair(link, p1, p2, (1.0, 0.0), grid)
        b = evolve_pair(link, p1, p2, (np.exp(2.1j), 0.0), grid)
        assert fidelity(a, T) == pytest.approx(fidelity(b, T), rel=1e-12)

    def test_loss_ordering_stirap_smallest(self):
        # at matched coupling and matched-rule durations the adiabatic
        # protocol keeps the link least populated
        g = 0.1
        link = link_for(g)
        n = {}
        for kind, T in (("swap", math.pi / math.sqrt(g)),
                        ("stirap", 9.0 / math.sqrt(g)),
                        ("czkm", 9.0 / math.sqrt(g))):
            traj, _ = run_protocol(ProtocolSpec(kind, g, T), link)
            n[kind] = photon_integral(traj)
        assert n["stirap"] < n["swap"]
        assert n["stirap"] < n["czkm"]
