import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import shortlink.protocols
from shortlink.core import eval_pulse, make_grid, make_link
from shortlink.dde import evolve_pair
from shortlink.protocols import (DarkBrightState, ProtocolSpec, czkm_bound,
                                 czkm_exact_error, dark_bright, fidelity,
                                 loss_error, make_pulses, photon_integral,
                                 run_protocol, shaped_pulse)
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


class TestShapedPulse:
    def test_sech_density_recovers_tanh(self):
        g0 = 0.5
        t = np.linspace(-40.0, 40.0, 8001)
        rho = 0.25 * g0 / np.cosh(0.5 * g0 * t) ** 2
        pulse = shaped_pulse(t, rho, gamma_cap=g0)
        interior = t[(t > -20.0) & (t < 10.0)]
        want = 0.5 * g0 * (1.0 + np.tanh(0.5 * g0 * interior))
        got = eval_pulse(pulse, interior)
        assert np.max(np.abs(got - want)) < 1e-4

    def test_zero_density(self):
        t = np.linspace(0.0, 5.0, 50)
        pulse = shaped_pulse(t, np.zeros_like(t), gamma_cap=1.0)
        assert np.max(eval_pulse(pulse, t)) == 0.0

    def test_bad_density_rejected(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="nonnegative"):
            shaped_pulse(t, np.array([0.1, 0.2, -0.1, 0.0, 0.0]), gamma_cap=1.0)
        for times, rho in ((t, np.zeros(4)), (t[:1], np.zeros(1)),
                           (np.zeros((2, 2)), np.zeros((2, 2)))):
            with pytest.raises(ValueError, match="^need matching 1-d times/density samples$"):
                shaped_pulse(times, rho, gamma_cap=1.0)

    def test_norm_overflow_rejected(self):
        t = np.linspace(0.0, 5.0, 500)
        with pytest.raises(ValueError, match="norm"):
            shaped_pulse(t, np.full_like(t, 0.5), gamma_cap=1.0)

    def test_cumsum_matches_cumulative_trapezoid(self):
        rng = np.random.default_rng(3)
        for n in rng.integers(2, 3000, 200):
            t = np.cumsum(rng.uniform(1e-3, 1.0, n))
            y = rng.uniform(0.0, 2.0, n)
            ours = np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)
            assert np.array_equal(ours, cumulative_trapezoid(y, t))

    @pytest.mark.filterwarnings("ignore:shaped pulse saturated")
    def test_matches_scipy_route(self):
        # gamma as shaped_pulse computed it with scipy's cumulative_trapezoid
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = np.sort(rng.uniform(-30.0, 30.0, int(rng.integers(50, 2000))))
            g0 = rng.uniform(0.1, 2.0)
            rho = rng.uniform(0.5, 0.999) * 0.25 * g0 / np.cosh(0.5 * g0 * t) ** 2
            for t0 in (None, float(rng.uniform(-10.0, 10.0))):
                r = rho if t0 is None else np.where(t < t0, 0.0, rho)
                cum = np.concatenate([[0.0], cumulative_trapezoid(r, t)])
                want = np.minimum(r / np.maximum(1.0 - cum, 1e-12), g0)
                pulse = shaped_pulse(t, rho, gamma_cap=g0, t0=t0)
                assert np.array_equal(pulse.values, want)

    def test_saturation_warns_and_caps(self):
        # density integrating to ~1 drives the denominator to the floor
        t = np.linspace(0.0, 1.0, 2001)
        rho = np.full_like(t, 1.0 - 1e-12)
        with pytest.warns(RuntimeWarning, match="saturated"):
            pulse = shaped_pulse(t, rho, gamma_cap=5.0)
        assert pulse.gamma_max <= 5.0


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
        rhs = np.abs(db.c1) ** 2 + np.abs(db.c2_shifted) ** 2
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
