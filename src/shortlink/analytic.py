"""Closed-form single-emitter solution, derivative-jump formula, eigenfrequency
solver, and the output power spectrum.

The series solution and jump formula follow the single-delay convention
(echo delay = the `delay` field, per-echo phase = `phi`); the spectroscopy
functions work in the lab frame of the two-ended link, where the emitter's
self-echo returns after 2*tau with phase 2*phi.

Eigenvalue convention: the lab-frame equation implemented here is

    lambda = Delta + (gamma/2) * cot(lambda * tau)

This is the form consistent with the physical mode ladder: it is exactly
periodic under (lambda, Delta) -> (lambda + pi/tau, Delta + pi/tau), it
gives the vacuum Rabi splitting 2*sqrt(gamma/(2 tau)) at the resonances
Delta*tau = k*pi, and the splitting saturates at pi/tau for strong
coupling.  The half-angle variant cot(lambda*tau/2) reproduces none of
these and is not used (its branch spacing would be 2*pi/tau).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import LinkParams, TWO_PI, _check_finite, make_link, phase_factor

_N_MAX = 500  # echo generations the series sums at most


@dataclass(frozen=True)
class SeriesParams:
    """Inputs of the echo-series solution.

    gamma: decay rate; delay: echo period; phi: per-echo phase.  The ladder
    e^{i n phi}, n = 0, 1, ..., is kept on the instance, grown on first use
    to the largest order asked for; equality, hashing and repr ignore it.
    """

    gamma: float
    delay: float
    phi: float
    _phases: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (all(map(math.isfinite, (self.gamma, self.delay, self.phi)))
                and self.delay > 0 and self.gamma >= 0):
            raise ValueError("need finite gamma, delay and phi, delay > 0 and gamma >= 0")


# per echo order n, the recurrence factors (n - m, m (m + 1)) as floats for
# m = 1 .. n-1; grown on first use, since the full 500-order table is MBs
_RECURRENCE: tuple = ()


def series_solution(p: SeriesParams, t: float) -> complex:
    """Exact c(t) for a single emitter with constant coupling.

    c(t) = e^{-gamma t/2} [1 + sum_n e^{n alpha delay} sum_m P_{n,m}(t)]
    with P_{n,m}(t) = C(n-1, m-1) [-gamma (t - n delay)]^m / m!
    and alpha = i phi/delay + gamma/2.

    Each echo generation n carries the combined factor
    e^{i n phi} e^{-gamma (t - n delay)/2}; the two exponentials are merged
    before evaluation so the partial factors never overflow on their own.

    The inner sums alternate in sign with terms growing like binomials of
    the echo order times e^{gamma t / 2}, so double precision limits the
    useful domain to roughly gamma*t < 40 and one to two hundred echo
    generations; beyond that the cancellation noise dominates, so gamma*t
    above 40 (or NaN) raises ValueError.

    The loops run on Python floats: numpy scalars (t from a TimeGrid) round
    the same but pay numpy's dispatch on every operation.
    """
    global _RECURRENCE
    if t < 0:
        raise ValueError("series solution is defined for t >= 0")
    t = float(t)
    g, d = p.gamma, p.delay
    if not (g * t <= 40.0):
        raise ValueError(f"gamma*t = {g * t} is outside the series solution's "
                         "gamma*t < 40 domain")
    n_t = int(math.floor(t / d + 1e-12))
    if n_t > _N_MAX:
        raise ValueError(
            f"t/delay = {t / d:.1f} exceeds the echo truncation order n_max={_N_MAX}"
        )
    # grown tables are replaced, never mutated, so a reader sees a whole one
    phases, coeffs = p._phases, _RECURRENCE
    if len(phases) <= n_t:
        phases += tuple(phase_factor(p.phi, n) for n in range(len(phases), n_t + 1))
        object.__setattr__(p, "_phases", phases)
    if len(coeffs) <= n_t:
        coeffs += tuple(tuple((float(n - m), float(m * (m + 1))) for m in range(1, n))
                        for n in range(len(coeffs), n_t + 1))
        _RECURRENCE = coeffs
    h = -0.5 * g
    total = complex(math.exp(h * t))
    for n in range(1, n_t + 1):
        dt = t - n * d
        if dt < 0:
            break
        x = -g * dt
        # inner sum over m via the stable term recurrence, pre-scaled
        term = x * math.exp(h * dt)
        inner = term
        for a, b in coeffs[n]:
            term *= x * a / b
            inner += term
        total += phases[n] * inner
    return total


def jump_formula(N: int, gamma: float, phi: float, c0: complex) -> complex:
    """Exact derivative jump of c at the N-th echo arrival: -gamma e^{i N phi} c(0)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return -gamma * phase_factor(phi, N) * complex(c0)


# ---------------------------------------------------------------------------
# Spectroscopy
# ---------------------------------------------------------------------------


@dataclass
class SpectralResult:
    """Eigenfrequency ladder plus sampled output power spectrum."""

    eigenfrequencies: np.ndarray
    omegas: np.ndarray = field(default_factory=lambda: np.empty(0))
    spectrum: np.ndarray = field(default_factory=lambda: np.empty(0))


def _brentq(f, xa, xb, xtol, rtol, maxiter):
    """Root of f in [xa, xb]: scipy.optimize.brentq's C routine (Brent 1973)
    ported step for step, so the same root to the bit and the same errors.
    """
    def fx(x):
        if math.isnan(y := f(x)):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return y

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _eigen_residual(lam: float, link: LinkParams) -> float:
    x = math.fmod(lam * link.tau, math.pi)
    return lam - link.delta - 0.5 * link.gamma0 / math.tan(x)


def eigenfrequencies(link: LinkParams, window) -> np.ndarray:
    """All real eigenfrequencies whose cot branch intersects the window.

    One root per open branch between consecutive singularities of
    cot(lambda*tau) at lambda = k*pi/tau; the function is monotone there,
    so a bracketed solve is globally convergent.  Roots are polished until
    the residual is below 1e-10 * max(|lambda|, gamma).
    """
    lo, hi = window
    if not (hi > lo):
        raise ValueError("empty eigenfrequency window")
    tau, gam, delta = link.tau, link.gamma0, link.delta
    fsr = math.pi / tau
    if gam == 0.0:
        bare = [k * fsr for k in range(int(math.floor(lo / fsr)), int(math.ceil(hi / fsr)) + 1)
                if lo <= k * fsr <= hi]
        if lo <= delta <= hi:
            bare.append(delta)
        return np.array(sorted(set(bare)))

    k_lo = int(math.floor(lo / fsr))
    k_hi = int(math.ceil(hi / fsr))
    roots = []
    for k in range(k_lo, k_hi):
        a, b = k * fsr, (k + 1) * fsr
        if b <= lo or a >= hi:
            continue
        eps = 1e-9 * fsr
        f = lambda lam: _eigen_residual(lam, link)
        lam = _brentq(f, a + eps, b - eps, 1e-15, 8.9e-16, 200)
        # derivative-free secant polish to push the residual down
        tol = 1e-10 * max(abs(lam), gam)
        x0, x1 = lam, lam * (1.0 + 1e-12) + 1e-300
        f0, f1 = f(x0), f(x1)
        for _ in range(8):
            if abs(f1) < tol or f1 == f0:
                break
            x0, x1, f0, f1 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1, None
            f1 = f(x1)
        lam = x1 if abs(f(x1)) < abs(f(lam)) else lam
        roots.append(lam)
    return np.array(sorted(roots))


def resonant_splitting(link: LinkParams) -> float:
    """Spacing of the two eigenfrequencies straddling the emitter line.

    Meaningful when Delta sits on a link mode (Delta*tau = k*pi): this is
    the vacuum Rabi splitting, ~ 2*sqrt(gamma/(2 tau)) for weak coupling
    and saturating at pi/tau.
    """
    fsr = link.fsr
    lams = eigenfrequencies(link, (link.delta - 1.5 * fsr, link.delta + 1.5 * fsr))
    above = lams[lams > link.delta]
    below = lams[lams < link.delta]
    if len(above) == 0 or len(below) == 0:
        raise ValueError("window contains no straddling pair")
    return float(above.min() - below.max())


def output_amplitude(link: LinkParams, omega, broadening: float = 0.0):
    """Lab-frame output field amplitude A(omega) of an initially excited emitter.

    A(s) = sqrt(gamma) / [(s + gamma/2)(1 - E) + gamma E],  E = e^{i 2 phi - 2 s tau},
    evaluated at s = broadening - i (omega - Delta).  The optional broadening
    moves the evaluation off the real axis (the undamped poles are real), which
    turns each line into a finite Lorentzian of common width.
    """
    _check_finite("broadening", broadening)
    w = np.asarray(omega, dtype=float)
    s = broadening - 1j * (w - link.delta)
    E = np.exp(1j * math.fmod(2.0 * link.phi, TWO_PI) - 2.0 * s * link.tau)
    den = (s + 0.5 * link.gamma0) * (1.0 - E) + link.gamma0 * E
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = math.sqrt(link.gamma0) / den
    return amp


def output_spectrum(link: LinkParams, omega_grid, broadening: float = 0.0) -> SpectralResult:
    """|A(omega)|^2 on the grid, normalized so the finite maximum is 1.

    Samples landing exactly on a pole are flagged +inf.  Local maxima of
    the sampled spectrum line up with the eigenfrequency ladder.
    """
    w = np.asarray(omega_grid, dtype=float)
    if w.size == 0 or not np.all(np.isfinite(w)):
        raise ValueError("omega_grid must be finite and nonempty")
    if np.any(np.diff(w) < 0):
        raise ValueError("omega_grid must be sorted")
    amp = output_amplitude(link, w, broadening)
    power = np.abs(amp) ** 2
    power[~np.isfinite(power)] = np.inf
    finite = power[np.isfinite(power)]
    if finite.size and finite.max() > 0:
        power = power / finite.max()
    lams = eigenfrequencies(link, (float(w[0]), float(w[-1]))) if link.gamma0 >= 0 else np.empty(0)
    return SpectralResult(eigenfrequencies=lams, omegas=w, spectrum=power)


def spectrum_scan(gamma0: float, tau: float, delta_values, omega_grid,
                  broadening: float = 0.0, label=float):
    """Heat-map rows (label(Delta), label(omega), power), one Delta at a time.

    A generator, so a caller writing the rows as they come never holds the
    table.  `label` maps each Delta and each omega of the grid once, not
    once per row (the CLI passes the formatted Delta/FSR and omega/FSR).
    """
    w = np.asarray(omega_grid, dtype=float)
    w_labels = [label(x) for x in w.tolist()]
    for delta in delta_values:
        res = output_spectrum(make_link(gamma0, tau, delta), w, broadening)
        yield from zip(itertools.repeat(label(delta)), w_labels, res.spectrum.tolist())
