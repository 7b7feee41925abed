"""Shared domain types: link parameters, coupling pulses, time grids, trajectories.

All quantities are dimensionless groups built on the traversal time tau
(gamma*tau, Delta*tau, T/tau, ...). No unit system is attached.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
NON_FINITE = "non-finite amplitude; check the couplings for NaN or inf"
NORM_SLACK = 1e-9  # how far past 1 a single-excitation norm may round


def _check_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class LinkParams:
    """Physical configuration of a finite-length link.

    gamma0: decay-rate scale (1/time), >= 0
    tau:    single-traversal time (> 0)
    delta:  emitter frequency in the lab frame (1/time)

    The single-traversal phase phi = delta*tau is kept at full floating
    precision; factors exp(i*n*phi) are computed from (n*phi mod 2*pi)
    at use-site to limit rounding growth.
    """

    gamma0: float
    tau: float
    delta: float

    @property
    def phi(self) -> float:
        return self.delta * self.tau

    @property
    def fsr(self) -> float:
        """Free spectral range pi/tau of the link's mode ladder."""
        return math.pi / self.tau


def make_link(gamma0: float, tau: float, delta: float) -> LinkParams:
    """Validate and build a LinkParams."""
    _check_finite("gamma0", gamma0)
    _check_finite("tau", tau)
    _check_finite("delta", delta)
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if gamma0 < 0:
        raise ValueError(f"gamma0 must be >= 0, got {gamma0}")
    # 2*phi, the round trip's phase, overflows for some finite delta; fmod(inf) raises
    _check_finite("round-trip phase 2*delta*tau", 2.0 * (float(delta) * float(tau)))
    return LinkParams(gamma0=float(gamma0), tau=float(tau), delta=float(delta))


def phase_factor(phi: float, n: int = 1) -> complex:
    """exp(i*n*phi) computed from the argument reduced mod 2*pi."""
    if math.isinf(n * phi):  # math.fmod(inf, 2 pi) raises "math domain error"
        raise ValueError(f"phase n*phi = {n}*{phi!r} overflows to {n * phi}")
    return cmath.exp(1j * math.fmod(n * phi, TWO_PI))


# ---------------------------------------------------------------------------
# Coupling pulses
# ---------------------------------------------------------------------------

_SHAPES = ("constant", "sin2", "tanh")


@dataclass(frozen=True)
class PulseProfile:
    """Time-dependent coupling gamma(t) as a tagged shape.

    shape is one of:
      constant: params {gamma0}
      sin2:     params {gamma0, duration}; gamma0*sin^2(pi*(t-t_start)/(2*duration))
      tanh:     params {gamma0, center};   gamma0/2*(1+tanh(gamma0*(t-center)/2))

    The profile vanishes outside the closed support interval.  If
    mirror_about is set, the base shape is evaluated at (2*mirror_about - t)
    which realizes the time-mirrored receiver pulses exactly.
    """

    shape: str
    params: dict
    support: tuple
    mirror_about: float | None = None

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        a, b = self.support
        if not (math.isfinite(a) and math.isfinite(b) and a <= b):
            raise ValueError(f"invalid support {self.support!r}")
        if self.mirror_about is not None:
            _check_finite("mirror_about", self.mirror_about)
        # these keep every sample in [0, gamma0] (see eval_pulse)
        g0 = self.params["gamma0"]
        _check_finite("gamma0", g0)
        if g0 < 0:
            raise ValueError(f"gamma0 must be >= 0, got {g0}")
        if self.shape == "sin2":
            T = self.params["duration"]
            if not (math.isfinite(T) and T > 0):
                raise ValueError(f"sin2 duration must be finite and > 0, got {T!r}")
        elif self.shape == "tanh":
            _check_finite("tanh center", self.params["center"])


def eval_pulse(p: PulseProfile, t):
    """Evaluate a pulse at time(s) t.  Pure; 0 outside the support.

    sin2 and tanh are sampled in place, one operation at a time in the
    order of g0 * sin(0.5*pi*(te - a)/T)**2 and
    0.5*g0 * (1 + tanh(0.5*g0 * (te - tc))).  Their checked parameters
    keep sin^2 and 1 + tanh in [0, 1] and [0, 2], so every sample lies in
    [0, gamma0] with no clamp.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    a, b = p.support
    outside = ~((t_arr >= a) & (t_arr <= b))  # NaN t too
    te = t_arr if p.mirror_about is None else 2.0 * p.mirror_about - t_arr
    if p.shape == "constant":
        g = np.full_like(t_arr, p.params["gamma0"])
    elif p.shape == "sin2":
        g = te - a
        g *= 0.5 * math.pi
        g /= p.params["duration"]
        np.sin(g, out=g)
        np.square(g, out=g)
        g *= p.params["gamma0"]
    else:  # tanh
        half_g0 = 0.5 * p.params["gamma0"]
        g = te - p.params["center"]
        g *= half_g0
        np.tanh(g, out=g)
        g += 1.0
        g *= half_g0
    np.copyto(g, 0.0, where=outside)
    return float(g[0]) if scalar else g


def constant_pulse(gamma0: float, support) -> PulseProfile:
    return PulseProfile("constant", {"gamma0": float(gamma0)}, tuple(support))


def sin2_pulse(gamma0: float, duration: float, mirror=False) -> PulseProfile:
    """gamma0*sin^2(pi*t/(2*T)) on [0, T]; mirror gives gamma(T - t)."""
    return PulseProfile("sin2", {"gamma0": float(gamma0), "duration": float(duration)},
                        (0.0, duration), mirror_about=0.5 * duration if mirror else None)


def tanh_pulse(gamma0: float, center: float, support, mirror_about=None) -> PulseProfile:
    """gamma0/2*(1+tanh(gamma0*(t-center)/2)); optionally time-mirrored."""
    return PulseProfile(
        "tanh",
        {"gamma0": float(gamma0), "center": float(center)},
        tuple(support),
        mirror_about=mirror_about,
    )


# ---------------------------------------------------------------------------
# Time grids and trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with step h = tau/steps_per_tau.

    The delay alignment (tau an exact multiple of h) keeps every echo
    arrival on a grid node, which confines the integrator's order loss at
    the derivative kinks to the nodes themselves.
    """

    h: float
    steps_per_tau: int
    t_end: float
    n_steps: int

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h


def make_grid(tau: float, t_end: float, steps_per_tau: int = 200) -> TimeGrid:
    """Build a grid aligned with the delay tau, rounding t_end up to a node."""
    if steps_per_tau < 4:
        raise ValueError("steps_per_tau must be >= 4")
    _check_finite("tau", tau)
    _check_finite("t_end", t_end)
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    h = tau / steps_per_tau
    n = int(math.ceil(t_end / h - 1e-9))
    if n < 1:
        raise ValueError(f"t_end={t_end} rounds to zero steps of h={h}")
    return TimeGrid(h=h, steps_per_tau=int(steps_per_tau), t_end=n * h, n_steps=n)


def run_inputs(pulses, c0, grid: TimeGrid):
    """An integrator's inputs, checked before its first step: (c0, gamma, gh).

    c0, made complex with its signed zeros kept, must be finite with norm <= 1;
    gamma and gh, the pulses' samples at nodes and half nodes, must be finite.
    """
    c0 = tuple(complex(z) for z in c0)
    if not sum(a * a for a in map(abs, c0)) <= 1.0 + NORM_SLACK:  # NaN fails too
        raise ValueError("initial amplitudes must be finite with norm <= 1 "
                         f"(the single-excitation sector), got {c0!r}")
    t = grid.times()
    gamma = np.array([eval_pulse(p, t) for p in pulses], dtype=float)
    gh = np.array([eval_pulse(p, t[:-1] + 0.5 * grid.h) for p in pulses], dtype=float)
    if not (np.isfinite(gamma).all() and np.isfinite(gh).all()):
        raise ValueError(NON_FINITE)
    return c0, gamma, gh


@dataclass
class Trajectory:
    """Emitter amplitudes on a grid.

    c has shape (n_emitters, n_steps+1); echo_delay_steps is the self-echo
    delay in steps.  From the method of steps, c (float in a real problem)
    is read-only: its stored run.
    """

    grid: TimeGrid
    c: np.ndarray
    echo_delay_steps: int

    @property
    def t(self) -> np.ndarray:
        return self.grid.times()

    def populations(self) -> np.ndarray:
        return np.abs(self.c) ** 2

    def photon_number(self) -> np.ndarray:
        """Photons in the link via single-excitation unitarity."""
        return np.clip(1.0 - np.sum(np.abs(self.c) ** 2, axis=0), 0.0, None)

    def amplitude_at(self, l: int, t: float) -> complex:
        """Cubic interpolation of c_l at an off-grid time (grid nodes exact)."""
        x = t / self.grid.h
        n = self.grid.n_steps
        if not (-1e-9 <= x <= n + 1e-9):
            raise ValueError(f"t={t} outside trajectory range")
        j = int(math.floor(x))
        if abs(x - round(x)) < 1e-9:
            return complex(self.c[l, int(round(x))])
        if n < 3:
            raise ValueError(f"off-grid interpolation needs at least 3 grid steps, got {n}")
        s = min(max(j - 1, 0), n - 3)
        w = _lagrange_weights(x - s)
        return complex(np.dot(w, self.c[l, s:s + 4]))

    def _columns(self):
        """Names and data of the trajectory table; a lone emitter's c2 is zero."""
        pops = self.populations()
        n_em = self.c.shape[0]
        c2 = self.c[1] if n_em > 1 else np.zeros_like(self.c[0])
        p2 = pops[1] if n_em > 1 else np.zeros_like(pops[0])
        names = ["t", "re_c1", "im_c1", "re_c2", "im_c2", "pop1", "pop2", "n_photon"]
        data = [self.t, self.c[0].real, self.c[0].imag, c2.real, c2.imag,
                pops[0], p2, self.photon_number()]
        return names, data


def _lagrange_weights(x: float) -> np.ndarray:
    """Cubic Lagrange weights for nodes {0,1,2,3} evaluated at x."""
    w = np.empty(4)
    for k in range(4):
        num = 1.0
        den = 1.0
        for m in range(4):
            if m != k:
                num *= x - m
                den *= k - m
        w[k] = num / den
    return w
