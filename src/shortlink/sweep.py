"""Protocol-duration optimization, coupling-strength scans, scaling-law fits.

Everything here works in dimensionless variables: couplings enter as
gamma0*tau, durations leave as T/tau, and tau = 1 internally.  All searches
use fixed deterministic grids plus golden-section refinement, so identical
inputs give bit-identical records.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import make_link
from .protocols import (ProtocolSpec, czkm_exact_error, fidelity,
                        photon_integral, transfer)

log = logging.getLogger(__name__)

_NOISE_FLOOR = 1e-9
_RISE_FRACTION = 0.05
_N_COARSE = 41   # SWAP durations in the coarse Rabi-bracket scan
_T_STEP = 0.25   # STIRAP duration scan step, in units of tau
_GR = 0.61803399  # golden-section ratio, to scipy.optimize.golden's digits
_GC = 1.0 - _GR


@dataclass(frozen=True)
class ScanRecord:
    """One optimized protocol point: coupling, best duration, its error."""

    protocol: str
    gamma0_tau: float
    t_opt: float
    infidelity: float
    loss_integral: float = 0.0
    note: str = ""


def _run(kind: str, gamma0_tau: float, T: float, steps_per_tau: int):
    """One protocol run at duration T (tau = 1 units)."""
    return transfer(ProtocolSpec(kind, gamma0_tau, T),
                    make_link(gamma0_tau, 1.0, 0.0), steps_per_tau)


def _error(kind: str, gamma0_tau: float, T: float, steps_per_tau: int) -> float:
    """Transfer error 1 - F of one run at duration T."""
    return 1.0 - fidelity(_run(kind, gamma0_tau, T, steps_per_tau), T)


def error_vs_duration(kind: str, gamma0_tau: float, T_values,
                      steps_per_tau: int = 200) -> np.ndarray:
    """Transfer error across a grid of durations (one row per T)."""
    return np.array([_error(kind, gamma0_tau, float(T), steps_per_tau)
                     for T in T_values])


def _golden(f, xa, xb, xc, tol):
    """Minimiser of f in the bracket (xa, xb, xc): scipy.optimize.golden ported
    call for call (bracket points included), so the same minimiser to the bit.
    """
    x0, x3 = (xc, xa) if xa > xc else (xa, xc)
    if not (x0 < xb and xb < x3):
        raise ValueError("Bracketing values (xa, xb, xc) do not"
                         " fulfill this requirement: (xa < xb) and (xb < xc)")
    fa, fb, fc = f(x0), f(xb), f(x3)
    if not (fb < fa and fb < fc):
        raise ValueError("Bracketing values (xa, xb, xc) do not fulfill"
                         " this requirement: (f(xb) < f(xa)) and (f(xb) < f(xc))")
    if abs(x3 - xb) > abs(xb - x0):
        x1, x2 = xb, xb + _GC * (x3 - xb)
    else:
        x1, x2 = xb - _GC * (xb - x0), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= tol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, _GR * x2 + _GC * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, _GR * x1 + _GC * x0
            f2, f1 = f1, f(x1)
    return x1 if f1 < f2 else x2


def _refine(f, bracket, coarse_t, coarse_err, tol_rel):
    """Golden-section polish; never returns worse than the coarse minimum."""
    t_best = _golden(f, *bracket, tol_rel)
    e_best = f(t_best)
    if e_best > coarse_err:
        return coarse_t, coarse_err
    return float(t_best), float(e_best)


def optimal_swap(gamma0_tau: float, steps_per_tau: int = 200) -> ScanRecord:
    """Best constant-coupling exchange near the Rabi period.

    Coarse scan of T over [0.5, 1.5] * pi/Omega with Omega = sqrt(gamma0/tau),
    then golden-section refinement to relative duration resolution 1e-4.
    """
    if gamma0_tau <= 0:
        raise ValueError("gamma0_tau must be > 0")
    t_rabi = math.pi / math.sqrt(gamma0_tau)
    Ts = np.linspace(0.5 * t_rabi, 1.5 * t_rabi, _N_COARSE)
    errs = error_vs_duration("swap", gamma0_tau, Ts, steps_per_tau)
    k = int(np.argmin(errs))
    note = ""
    if k == 0 or k == len(Ts) - 1:
        warnings.warn("no interior SWAP minimum in the Rabi bracket; "
                      "returning the best endpoint", RuntimeWarning, stacklevel=2)
        t_opt, e_opt = float(Ts[k]), float(errs[k])
        note = "bracket-endpoint"
    else:
        f = lambda T: _error("swap", gamma0_tau, float(T), steps_per_tau)
        t_opt, e_opt = _refine(f, (Ts[k - 1], Ts[k], Ts[k + 1]),
                               float(Ts[k]), float(errs[k]), 1e-4)
    n_int = photon_integral(_run("swap", gamma0_tau, t_opt, steps_per_tau))
    return ScanRecord("swap", gamma0_tau, t_opt, e_opt, n_int, note)


def optimal_stirap(gamma0_tau: float, steps_per_tau: int = 200) -> ScanRecord:
    """First valley of the adiabatic-ramp error as T grows.

    Scans T upward from 2*tau in steps of tau/4; a local minimum counts as
    the valley once the error has risen back above it by 5% (so grid-level
    noise is not declared a valley), and is then refined by golden section.
    """
    if gamma0_tau <= 0:
        raise ValueError("gamma0_tau must be > 0")
    t_max = 100.0 / math.sqrt(gamma0_tau)
    f = lambda T: _error("stirap", gamma0_tau, float(T), steps_per_tau)

    ts = [2.0, 2.0 + _T_STEP]
    es = [f(ts[0]), f(ts[1])]
    k_min = int(np.argmin(es))
    while ts[-1] < t_max:
        ts.append(ts[-1] + _T_STEP)
        es.append(f(ts[-1]))
        if es[-1] < es[k_min]:
            k_min = len(es) - 1
        elif (k_min > 0 and k_min < len(es) - 1
              and es[-1] > es[k_min] * (1.0 + _RISE_FRACTION)):
            break  # valley confirmed: descended into k_min and rose back out
    else:
        return ScanRecord("stirap", gamma0_tau, ts[k_min], es[k_min],
                          note="no-valley-within-scan")

    lo = ts[k_min - 1]
    hi = ts[k_min + 1] if k_min + 1 < len(ts) else ts[k_min] + _T_STEP
    t_opt, e_opt = _refine(f, (lo, ts[k_min], hi), ts[k_min], es[k_min], 1e-4)
    n_int = photon_integral(_run("stirap", gamma0_tau, t_opt, steps_per_tau))
    return ScanRecord("stirap", gamma0_tau, t_opt, e_opt, n_int)


def czkm_record(gamma0_tau: float, steps_per_tau: int = 200) -> ScanRecord:
    """Wavepacket-engineering point at the shared resource rule T = 9/sqrt(g0 tau).

    The error is the closed-form bright-state formula (`czkm_exact_error`);
    no two-emitter run is made, so the loss integral is left at 0.
    """
    T = 9.0 / math.sqrt(gamma0_tau)
    return ScanRecord("czkm", gamma0_tau, T,
                      czkm_exact_error(gamma0_tau, 1.0, T, steps_per_tau))


def scan_protocols(gamma0_tau_grid, protocols=("swap", "stirap", "czkm"),
                   steps_per_tau: int = 200) -> list:
    """Optimized records for each requested protocol over a coupling grid."""
    grid = [float(g) for g in gamma0_tau_grid]
    if any(g <= 0 for g in grid):
        raise ValueError("gamma0_tau grid must be positive")
    out = []
    for kind in protocols:
        for g in grid:
            if kind == "swap":
                out.append(optimal_swap(g, steps_per_tau))
            elif kind == "stirap":
                out.append(optimal_stirap(g, steps_per_tau))
            elif kind == "czkm":
                out.append(czkm_record(g, steps_per_tau))
            else:
                raise ValueError(f"unknown protocol {kind!r}")
    return out


def crossover(records) -> float | None:
    """Smallest scanned coupling where the wavepacket protocol beats STIRAP."""
    stirap = {r.gamma0_tau: r.infidelity for r in records if r.protocol == "stirap"}
    czkm = {r.gamma0_tau: r.infidelity for r in records if r.protocol == "czkm"}
    for g in sorted(set(stirap) & set(czkm)):
        if czkm[g] < stirap[g]:
            return g
    return None


def fit_power_law(points):
    """Least-squares power law y = a * x**b through (x, y) pairs.

    Fit is linear in log-log space; the residual is the RMS log error.
    Points with y below the 1e-9 integrator noise floor are excluded
    (count logged); at least 3 usable points are required, and every
    point must be finite.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not all(0 < x < math.inf and 0 <= y < math.inf for x, y in pts):
        raise ValueError("power-law fit needs finite x > 0 and y >= 0")
    kept = [(x, y) for x, y in pts if y >= _NOISE_FLOOR]
    dropped = len(pts) - len(kept)
    if dropped:
        log.info("fit_power_law: dropped %d point(s) below the noise floor", dropped)
    if len(kept) < 3:
        raise ValueError("need at least 3 points above the noise floor")
    lx = np.log([x for x, _ in kept])
    ly = np.log([y for _, y in kept])
    b, la = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (la + b * lx)) ** 2)))
    return float(math.exp(la)), float(b), resid


def loss_scan(gamma0_tau_grid, kappa_tau: float = 0.01,
              protocols=("swap", "stirap", "czkm"),
              steps_per_tau: int = 200) -> dict:
    """Loss-induced error vs protocol duration at the optimal-T rules.

    For each coupling the duration follows the protocol's own rule
    (swap: pi/sqrt(g0 tau); stirap, czkm: 9/sqrt(g0 tau)), the full DDE run
    supplies the photon-number integral, and the loss error is
    1 - exp(-kappa * integral n dt).  Returns per-protocol rows
    (T/tau, loss_error) plus a power-law fit of loss vs duration.
    """
    out = {}
    for kind in protocols:
        rows = []
        for g in gamma0_tau_grid:
            g = float(g)
            T = (math.pi if kind == "swap" else 9.0) / math.sqrt(g)
            n_int = photon_integral(_run(kind, g, T, steps_per_tau))
            eps = 1.0 - math.exp(-kappa_tau * n_int)
            rows.append((T, eps))
        a, b, resid = fit_power_law(rows)
        out[kind] = {"rows": rows, "fit": {"prefactor": a, "exponent": b,
                                           "residual": resid}}
    return out
