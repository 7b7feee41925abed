"""State-transfer protocols: pulse generators, fidelity, exact error machinery.

Three named pulse families move an excitation from emitter 1 to emitter 2:

  swap    constant gamma_0 on both emitters (bare Rabi exchange)
  stirap  counterintuitive sin^2 ramp pair, receiver first
  czkm    complementary tanh pair shaping a sech photon wavepacket

CZKM geometry: the receiver's switching center sits at t_c = T/2 + tau/2
and the sender's rise is centered one traversal time earlier, at t_c - tau,
so the photon (delayed by tau) always meets a time-mirrored absorber.  With
this offset the shifted couplings are exactly complementary,
gamma_1(t) + gamma_2(t + tau) = gamma_0, which is what makes the dark
amplitude stationary and the closed-form error formula exact.

`transfer` makes every protocol run; `fidelity` and `loss_error` (kappa >= 0)
hold the only copies of the fidelity and loss formulas.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (LinkParams, PulseProfile, Trajectory, constant_pulse, eval_pulse,
                   make_grid, sampled_pulse, sin2_pulse, tanh_pulse)
from .dde import evolve_pair, evolve_single

KINDS = ("swap", "stirap", "czkm")

_DENOM_FLOOR = 1e-12


def check_kind(kind: str) -> None:
    """Reject a protocol name that is not one of KINDS."""
    if kind not in KINDS:
        raise ValueError(f"unknown protocol {kind!r}")


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol run: family, coupling cap gamma0, duration T."""

    kind: str
    gamma0: float
    duration: float

    def __post_init__(self):
        check_kind(self.kind)
        if self.gamma0 <= 0 or self.duration <= 0:
            raise ValueError("need gamma0 > 0 and duration > 0")


def make_pulses(spec: ProtocolSpec, link: LinkParams):
    """Coupling pair (pulse1, pulse2) on support [0, T] for a named protocol."""
    g0, T, tau = spec.gamma0, spec.duration, link.tau
    if spec.kind == "swap":
        return constant_pulse(g0, (0.0, T)), constant_pulse(g0, (0.0, T))
    if spec.kind == "stirap":
        return sin2_pulse(g0, T), sin2_pulse(g0, T, mirror=True)
    if spec.kind == "czkm":
        if T <= tau:
            raise ValueError("czkm needs duration > tau")
        t_c = 0.5 * T + 0.5 * tau
        sender_center = t_c - tau
        p1 = tanh_pulse(g0, sender_center, (0.0, T))
        p2 = tanh_pulse(g0, sender_center, (0.0, T),
                        mirror_about=t_c - 0.5 * tau)
        return p1, p2


def shaped_pulse(times, density, gamma_cap: float, t0: float | None = None) -> PulseProfile:
    """Coupling that emits a photon with the given |psi(t)|^2 envelope.

    gamma(t) = |psi(t)|^2 / (1 - integral_{t0}^t |psi|^2), trapezoid
    cumulative on the sample grid.  The denominator is floored at 1e-12 and
    the result clamped at gamma_cap; either event raises a saturation
    warning since the exact dark-state condition diverges as the wavepacket
    norm approaches one.
    """
    t = np.asarray(times, dtype=float)
    rho = np.asarray(density, dtype=float)
    if t.ndim != 1 or t.shape != rho.shape or t.size < 2:
        raise ValueError("need matching 1-d times/density samples")
    if np.any(rho < 0):
        raise ValueError("|psi|^2 must be nonnegative")
    if t0 is not None:
        rho = np.where(t < t0, 0.0, rho)
    cum = np.concatenate([[0.0], np.cumsum(np.diff(t) * (rho[1:] + rho[:-1]) / 2.0)])
    if cum[-1] > 1.0 + 1e-9:
        raise ValueError(f"wavepacket norm {cum[-1]:.6f} exceeds 1")
    denom = 1.0 - cum
    floored = denom < _DENOM_FLOOR
    gamma = rho / np.maximum(denom, _DENOM_FLOOR)
    capped = gamma > gamma_cap
    if np.any(floored) or np.any(capped):
        warnings.warn("shaped pulse saturated: wavepacket norm reaches 1 "
                      "within the sample window; coupling clamped at the cap",
                      RuntimeWarning, stacklevel=2)
    return sampled_pulse(t, np.minimum(gamma, gamma_cap))


def fidelity(traj: Trajectory, T: float) -> float:
    """Transfer fidelity F = |c_2(T)|^2."""
    return abs(traj.amplitude_at(1, T)) ** 2


# ---------------------------------------------------------------------------
# CZKM exact error and dark/bright decomposition
# ---------------------------------------------------------------------------


@dataclass
class DarkBrightState:
    """Dark/bright rotation of (c1, shifted c2) over the overlap window."""

    t: np.ndarray
    d: np.ndarray
    b: np.ndarray
    u: float
    t_eff: float
    c1: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=complex))
    c2_shifted: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=complex))

    def drift(self) -> float:
        """max_t |d(t) - d(0)|; vanishes for the ideal sech protocol."""
        return float(np.max(np.abs(self.d - self.d[0])))


def dark_bright(traj: Trajectory, pulses, link: LinkParams) -> DarkBrightState:
    """d(t), b(t) built from c1(t) and the shifted receiver c2(t + tau).

    The tau shift is an exact index offset on the delay-aligned grid.  The
    window runs while both amplitudes exist, t in [0, t_end - tau].
    """
    M = traj.grid.steps_per_tau
    N = traj.grid.n_steps
    if N <= M:
        raise ValueError("trajectory shorter than one traversal time")
    t = traj.t[: N - M + 1]
    c1 = traj.c[0, : N - M + 1]
    c2s = traj.c[1, M:]
    pulse1, pulse2 = pulses
    g1 = np.sqrt(np.asarray(eval_pulse(pulse1, t), dtype=float))
    g2s = np.sqrt(np.asarray(eval_pulse(pulse2, t + link.tau), dtype=float))
    root = math.sqrt(link.gamma0) if link.gamma0 > 0 else 1.0
    d = (g2s * c1 - g1 * c2s) / root
    b = (g1 * c1 + g2s * c2s) / root
    t_eff = traj.grid.t_end - link.tau
    u = math.tanh(0.25 * link.gamma0 * t_eff)
    return DarkBrightState(t=t, d=d, b=b, u=u, t_eff=t_eff, c1=c1, c2_shifted=c2s)


def bright_response(gamma0: float, tau: float, t_eff: float,
                    steps_per_tau: int = 200) -> complex:
    """beta(T_eff): the normalized bright amplitude after the transfer.

    beta obeys dbeta/dt = -(gamma0/2) beta - gamma0 sum_n beta(t - 2 n tau)
    with beta = 1 at the window start, i.e. the echo-sum equation with
    round-trip delay 2 tau and zero round-trip phase.
    """
    link = LinkParams(gamma0=gamma0, tau=tau, delta=0.0)
    grid = make_grid(tau, t_eff, steps_per_tau)
    pulse = constant_pulse(gamma0, (0.0, grid.t_end))
    traj = evolve_single(link, pulse, 1.0, grid, round_trip=(2.0 * tau, 0.0))
    return traj.amplitude_at(0, t_eff)


def czkm_exact_error(gamma0: float, tau: float, T: float,
                     steps_per_tau: int = 200) -> float:
    """Closed-form transfer error of the sech protocol of total duration T.

    epsilon = 1 - |(1+u)/2 - (1-u)/2 * beta(T_eff)|^2 with T_eff = T - tau
    and u = tanh(gamma0 T_eff / 4).
    """
    if T <= tau:
        raise ValueError("need T > tau")
    t_eff = T - tau
    u = math.tanh(0.25 * gamma0 * t_eff)
    beta = bright_response(gamma0, tau, t_eff, steps_per_tau)
    amp = 0.5 * (1.0 + u) - 0.5 * (1.0 - u) * beta
    return 1.0 - abs(amp) ** 2


def czkm_bound(gamma0: float, tau: float, T: float) -> float:
    """Lower error bound exp(-gamma0 (T - tau)) for any coupling capped at gamma0."""
    if T <= tau:
        raise ValueError("need T > tau")
    return math.exp(-gamma0 * (T - tau))


# ---------------------------------------------------------------------------
# Loss estimate and full protocol records
# ---------------------------------------------------------------------------


def photon_integral(traj: Trajectory) -> float:
    """integral of the link photon number n(t) over the run (trapezoid)."""
    return float(np.trapezoid(traj.photon_number(), traj.t))


def loss_error(n_int: float, kappa: float) -> float:
    """Loss-induced infidelity 1 - exp(-kappa * n_int), n_int = integral n(t) dt."""
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    return 1.0 - math.exp(-kappa * n_int)


def transfer(spec: ProtocolSpec, link: LinkParams,
             steps_per_tau: int = 200) -> Trajectory:
    """Integrate one protocol run from the excitation on emitter 1."""
    pulses = make_pulses(spec, link)
    grid = make_grid(link.tau, spec.duration, steps_per_tau)
    return evolve_pair(link, pulses[0], pulses[1], (1.0, 0.0), grid)


def run_protocol(spec: ProtocolSpec, link: LinkParams,
                 steps_per_tau: int = 200, kappa: float = 0.0):
    """Integrate one protocol and summarize it as a JSON-ready record."""
    loss_error(0.0, kappa)  # a bad kappa fails here, before the run
    traj = transfer(spec, link, steps_per_tau)
    F = fidelity(traj, spec.duration)
    n_int = photon_integral(traj)
    record = {
        "kind": spec.kind,
        "gamma0_tau": spec.gamma0 * link.tau,
        "T_over_tau": spec.duration / link.tau,
        "fidelity": F,
        "error": 1.0 - F,
        "loss_error": loss_error(n_int, kappa),
        "photon_integral": n_int,
        "kappa_tau": kappa * link.tau,
    }
    return traj, record
