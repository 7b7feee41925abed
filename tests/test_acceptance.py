"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single machine-greppable PASS/FAIL line (visible with
`pytest -s`) before asserting, so the full scorecard can be collected even
when individual criteria fail.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from shortlink.analytic import (SeriesParams, eigenfrequencies,
                                resonant_splitting, series_solution)
from shortlink.core import (constant_pulse, make_grid, make_link, sin2_pulse,
                            eval_pulse)
from shortlink.dde import (derivative_kinks, evolve_pair, evolve_single,
                           population_kinks)
from shortlink.protocols import (ProtocolSpec, czkm_bound, czkm_exact_error,
                                 photon_integral, run_protocol)
from shortlink.sweep import (_NOISE_FLOOR, crossover, fit_power_law,
                             loss_scan, optimal_stirap, optimal_swap,
                             scan_protocols)
from shortlink.ww import build_modes, evolve_ww, unitarity_defect

TAU = 1.0


def report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_mode_resolved_oracle_agreement():
    t0 = time.perf_counter()
    link = make_link(0.1, TAU, 50.0 * math.pi)
    grid = make_grid(TAU, 12.0, 2400)
    pulse = constant_pulse(0.1, (0.0, grid.t_end))
    modes = build_modes(link, 401)
    ww = evolve_ww(link, modes, (pulse, pulse), (1.0, 0.0), grid)
    dde = evolve_pair(link, pulse, pulse, (1.0, 0.0), grid)
    dev = float(np.max(np.abs(ww.populations() - dde.populations())))
    elapsed = time.perf_counter() - t0
    report(1, "delay model vs mode-resolved oracle",
           dev <= 2e-2 and elapsed < 30.0,
           f"max |c|^2 deviation {dev:.2e} (<= 2e-2), runtime {elapsed:.1f} s (< 30 s)")


def test_criterion_02_series_solution_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        gamma = float(rng.uniform(0.01, 2.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        link = make_link(gamma, TAU, phi)
        grid = make_grid(TAU, 10.0, 400)
        pulse = constant_pulse(gamma, (0.0, grid.t_end))
        traj = evolve_single(link, pulse, 1.0, grid, round_trip=(TAU, phi))
        p = SeriesParams(gamma=gamma, delay=TAU, phi=phi)
        exact = np.array([series_solution(p, t) for t in grid.times()])
        worst = max(worst, float(np.max(np.abs(traj.c[0] - exact))))
    elapsed = time.perf_counter() - t0
    report(2, "closed-form series equivalence",
           worst <= 1e-6 and elapsed < 10.0,
           f"max error {worst:.2e} over 20 draws (<= 1e-6), {elapsed:.1f} s (< 10 s)")


def test_criterion_03_echo_kink_formula():
    ok = True
    details = []
    for gamma, phi in [(0.3, 0.0), (1.0, 2.5)]:
        link = make_link(gamma, TAU, phi)
        grid = make_grid(TAU, 6.0, 400)
        pulse = constant_pulse(gamma, (0.0, grid.t_end))
        traj = evolve_single(link, pulse, 1.0, grid, round_trip=(TAU, phi))
        kinks = derivative_kinks(traj)
        want = -gamma * complex(np.exp(1j * phi))
        rel = abs(kinks[0][1] - want) / abs(want)
        details.append(f"first-echo jump rel err {rel:.1e}")
        ok &= rel < 0.01
        ok &= all(abs(j) <= gamma * (1 + 1e-6) for _, j in kinks)
        ok &= all(abs(j) <= 2 * gamma * (1 + 1e-6)
                  for _, j in population_kinks(traj))
    report(3, "derivative-jump formula at echoes", ok,
           "; ".join(details) + "; magnitudes within gamma / 2*gamma")


def test_criterion_04_eigenvalue_ladder():
    ok = True
    for gamma in (0.15, 1.5):
        link = make_link(gamma, TAU, 50.0 * math.pi)
        lams = eigenfrequencies(link, (45.0 * math.pi, 55.0 * math.pi))
        for lam in lams:
            r = lam - link.delta - 0.5 * gamma / math.tan(math.fmod(lam, math.pi))
            ok &= abs(r) < 1e-10 * max(abs(lam), gamma)
    weak = resonant_splitting(make_link(0.01, TAU, 50.0 * math.pi))
    ok &= abs(weak / (2.0 * math.sqrt(0.01 / 2.0)) - 1.0) < 0.05
    splits = [resonant_splitting(make_link(g, TAU, 50.0 * math.pi))
              for g in (0.01, 0.1, 1.0, 10.0, 50.0)]
    ok &= all(b > a for a, b in zip(splits, splits[1:]))
    ok &= all(s < math.pi for s in splits)
    ok &= abs(splits[-1] / math.pi - 1.0) < 0.05
    report(4, "hybridized eigenfrequencies and Rabi splitting", ok,
           f"residuals < 1e-10, weak splitting {weak:.4f} vs "
           f"{2.0 * math.sqrt(0.005):.4f}, saturation {splits[-1]:.3f}/pi")


def sector_swap_optimum(gamma):
    """Least SWAP error 1 - |c2(T)|^2 over optimal_swap's bracket, in closed form.

    With equal constant couplings, c+- = c1 +- c2 each obey the
    single-emitter delay equation with round trip (tau, phi) for + and
    (tau, phi + pi) for -, so c2(T) = (c+(T) - c-(T))/2 follows from the
    echo series alone, with no integrator (phi = 0: optimal_swap's link is
    resonant).  The bracket [0.5, 1.5] * pi/sqrt(gamma*tau) is scanned at
    tau/20, finer than the tau-periodic echo ripple, and the best scan
    point is then polished.
    """
    plus = SeriesParams(gamma=gamma, delay=TAU, phi=0.0)
    minus = SeriesParams(gamma=gamma, delay=TAU, phi=math.pi)

    def err(T):
        c2 = 0.5 * (series_solution(plus, T) - series_solution(minus, T))
        return 1.0 - abs(c2) ** 2

    t_rabi = math.pi / math.sqrt(gamma)
    ts = np.linspace(0.5 * t_rabi, 1.5 * t_rabi,
                     int(math.ceil(20.0 * t_rabi / TAU)) + 1)
    errs = [err(T) for T in ts]
    k = int(np.argmin(errs))
    bounds = (ts[max(k - 1, 0)], ts[min(k + 1, ts.size - 1)])
    best = minimize_scalar(err, bounds=bounds, method="bounded",
                           options={"xatol": 1e-6})
    return min(float(best.fun), errs[k])


def points(records):
    """(gamma0*tau, T_opt, error) of each optimized record, for a report line."""
    return "; ".join(f"({r.gamma0_tau:g}, {r.t_opt:.3f}, {r.infidelity:.3e})"
                     for r in records)


def test_criterion_05_swap_error_scaling():
    # The slope target is the model's own: first-order leakage into the
    # off-resonant modes of the two sectors averages gamma*tau/3 over the
    # echo ripple, and the optimum sits a little below that (README, Tests).
    t0 = time.perf_counter()
    gs = np.array([0.01, 0.02, 0.05, 0.1, 0.2, 0.5])
    records = [optimal_swap(g) for g in gs]
    eps = np.array([r.infidelity for r in records])
    slope = float(np.polyfit(gs, eps, 1)[0])
    _, exponent, _ = fit_power_law(list(zip(gs, eps)))
    elapsed = time.perf_counter() - t0
    exact = np.array([sector_swap_optimum(g) for g in gs])
    want = float(np.polyfit(gs, exact, 1)[0])
    dev = float(np.max(np.abs(eps - exact)))
    ok = (0.8 * want <= slope <= 1.2 * want and 0.85 <= exponent <= 1.15
          and dev <= 1e-5 and elapsed < 300)
    report(5, "constant-coupling transfer error scaling", ok,
           f"linear slope {slope:.3f} (want {want:.3f} +- 20%, closed-form "
           f"sector optimum), power-law exponent {exponent:.3f} (want 1.0 +- "
           f"0.15), max |eps - closed form| {dev:.1e} (<= 1e-5), {elapsed:.0f} s "
           f"(< 300 s); (gamma0*tau, T_opt, eps): {points(records)}")


def test_criterion_06_stirap_error_scaling():
    t0 = time.perf_counter()
    gs = np.array([0.05, 0.1, 0.2, 0.5, 1.0, 1.4])
    records = [optimal_stirap(g) for g in gs]
    eps = np.array([r.infidelity for r in records])
    prefactor, exponent, _ = fit_power_law(list(zip(gs, eps)))
    rec_144 = optimal_stirap(1.44)
    elapsed = time.perf_counter() - t0
    n_floor = int(np.sum(eps < _NOISE_FLOOR))
    ok = ((1.8 <= exponent <= 2.2) and (1e-5 <= prefactor <= 4e-5)
          and rec_144.infidelity < 4e-4 and elapsed < 900)
    report(6, "adiabatic-passage transfer error scaling", ok,
           f"exponent {exponent:.3f} (want 2.0 +- 0.2), prefactor "
           f"{prefactor:.2e} (want [1e-5, 4e-5]), eps(1.44) = {rec_144.infidelity:.2e} "
           f"at T = {rec_144.t_opt:.3f} (want < 4e-4), {elapsed:.0f} s (< 900 s); "
           f"(gamma0*tau, T_opt, eps): {points(records)}; "
           f"{n_floor} point(s) below the {_NOISE_FLOOR:g} fit floor")


def test_criterion_07_photon_shaping_exact_error():
    worst = 0.0
    for g in (0.05, 0.1, 0.2, 0.5, 1.0):
        for T in (5.0, 10.0, 20.0, 40.0, 80.0):
            link = make_link(g, TAU, 0.0)
            _, rec = run_protocol(ProtocolSpec("czkm", g, T), link)
            exact = czkm_exact_error(g, TAU, T)
            worst = max(worst, abs(exact - rec["error"]))
    # the exponential lower bound is an operating-regime statement: check it
    # along the shared resource rule T = 9/sqrt(gamma0*tau).  Off that line
    # (short durations) the reflected bright component can return out of
    # phase and push the error below the open-system bound.
    bound_ok = True
    for g in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 1.44, 2.0, 3.0, 5.0):
        T = 9.0 / math.sqrt(g)
        bound_ok &= czkm_exact_error(g, TAU, T) >= czkm_bound(g, TAU, T) - 1e-15
    g = 0.5
    teffs = np.linspace(10.0, 30.0, 9) / g
    errs = [czkm_exact_error(g, TAU, te + TAU) for te in teffs]
    slope = float(np.polyfit(g * teffs, np.log(errs), 1)[0])
    ok = worst <= 1e-6 and bound_ok and abs(slope + 0.5) <= 0.05
    report(7, "shaped-wavepacket exact error formula", ok,
           f"max |exact - DDE| = {worst:.2e} on 5x5 grid (<= 1e-6), bound "
           f"respected: {bound_ok}, log-slope {slope:.3f} (want -0.5 +- 10%)")


def test_criterion_08_protocol_crossover():
    # With CZKM pinned to its closed form (criterion 07), this target and
    # criterion 06's cannot both hold.  At T = 9/sqrt(gamma0*tau) CZKM's
    # error is 3.12e-2, 1.92e-2 and 1.61e-2 at gamma0*tau = 1.24, 1.44 and
    # 1.64, so a crossover within 1.44 +- 0.2 needs STIRAP above 1.6e-2 at
    # one of them; criterion 06 wants STIRAP below 4e-4 at 1.44.  Both hold
    # only if STIRAP's error rises >= 40-fold between neighbouring points.
    grid = [0.8, 1.0, 1.24, 1.44, 1.64, 2.0, 2.5, 3.0]
    records = scan_protocols(grid, protocols=("stirap", "czkm"))
    x = crossover(records)
    by = {(r.protocol, r.gamma0_tau): r.infidelity for r in records}
    ordered_below = by[("stirap", 0.8)] < by[("czkm", 0.8)]
    ordered_above = by[("czkm", 3.0)] < by[("stirap", 3.0)]
    ok = (x is not None and abs(x - 1.44) <= 0.2
          and ordered_below and ordered_above)
    per_point = "; ".join(f"{g:g}: {by[('stirap', g)]:.3e}/{by[('czkm', g)]:.3e}"
                          for g in grid)
    report(8, "adiabatic vs shaped-pulse crossover", ok,
           f"crossover at gamma0*tau = {x} (want 1.44 +- 0.2), "
           f"ordering below/above: {ordered_below}/{ordered_above}; "
           f"gamma0*tau: stirap/czkm error {per_point}")


def test_criterion_09_photon_loss_model():
    want = {"swap": (0.9, 0.0034), "stirap": (0.9, 0.0014),
            "czkm": (1.3, 0.0005)}
    fits = {}
    fits.update({k: v["fit"] for k, v in loss_scan(
        [0.002, 0.005, 0.01, 0.02, 0.05, 0.1], kappa_tau=0.01,
        protocols=("swap",)).items()})
    fits.update({k: v["fit"] for k, v in loss_scan(
        [0.01, 0.02, 0.05, 0.1, 0.2, 0.5], kappa_tau=0.01,
        protocols=("stirap", "czkm")).items()})
    ok = True
    parts = []
    for kind, (b_want, a_want) in want.items():
        a, b = fits[kind]["prefactor"], fits[kind]["exponent"]
        ok &= abs(b - b_want) <= 0.15 and a_want / 2.0 <= a <= 2.0 * a_want
        parts.append(f"{kind}: {a:.2e}*T^{b:.2f} (want ~{a_want}*T^{b_want})")
    g = 0.1
    link = make_link(g, TAU, 0.0)
    n = {}
    for kind, T in (("swap", math.pi / math.sqrt(g)),
                    ("stirap", 9.0 / math.sqrt(g)),
                    ("czkm", 9.0 / math.sqrt(g))):
        traj, _ = run_protocol(ProtocolSpec(kind, g, T), link)
        n[kind] = photon_integral(traj)
    ok &= n["stirap"] < n["swap"] and n["stirap"] < n["czkm"]
    report(9, "propagation-loss sensitivity", ok,
           "; ".join(parts) + f"; photon-time integrals {n}")


def test_criterion_10_structural_properties():
    ok = True
    # mode-resolved evolution is unitary
    link = make_link(0.1, TAU, 50.0 * math.pi)
    grid = make_grid(TAU, 8.0, 400)
    pulse = constant_pulse(0.1, (0.0, grid.t_end))
    ww = evolve_ww(link, build_modes(link, 41), (pulse, pulse), (1.0, 0.0), grid)
    u = unitarity_defect(ww)
    ok &= u < 1e-6
    # delay model never grows the norm
    dde = evolve_pair(link, pulse, pulse, (1.0, 0.0), grid)
    ok &= float(np.max(np.sum(np.abs(dde.c) ** 2, axis=0))) <= 1.0 + 1e-9
    # pulse mirroring is exact on the grid
    p = sin2_pulse(0.7, 10.0)
    q = sin2_pulse(0.7, 10.0, mirror=True)
    t = np.linspace(0.0, 10.0, 41)
    ok &= bool(np.array_equal(eval_pulse(q, t), eval_pulse(p, 10.0 - t)))
    # the eigenfrequency ladder translates with the detuning
    a = eigenfrequencies(make_link(0.6, TAU, 30.0), (25.0, 35.0))
    b = eigenfrequencies(make_link(0.6, TAU, 30.0 + math.pi),
                         (25.0 + math.pi, 35.0 + math.pi))
    ok &= bool(np.allclose(b, a + math.pi, atol=1e-9))
    # the delay model is linear in the initial condition
    half = evolve_pair(link, pulse, pulse, (0.5, 0.0), grid)
    ok &= float(np.max(np.abs(2.0 * half.c - dde.c))) < 1e-12
    report(10, "structural property suite", ok,
           f"unitarity defect {u:.1e}, norm cap, mirror identity, "
           "ladder translation, linearity")
