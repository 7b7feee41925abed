"""Multimode Wigner-Weisskopf simulator: the independent ground truth.

Integrates the full single-excitation Schroedinger equation for two
emitters coupled to a discrete mode ladder, in the frame rotating at the
emitter frequency Delta:

    dc_l/dt    = -i sum_k g_{k,l}(t) e^{-i (w_k - Delta) t} alpha_k
    dalpha_k/dt = -i sum_l g_{k,l}(t) e^{+i (w_k - Delta) t} c_l

with g_{k,1} = sqrt(gamma_1(t)/(2 tau)) and g_{k,2} = s_k * g_{k,1}-like,
where the standing-wave parity s_k = (-1)^k fixes the sign of mode k at
the far end of the link.  The coupling normalization sqrt(gamma/(2 tau))
makes the Markovian decay rate of a single emitter equal gamma.

A run keeps the link photon number sum_k |alpha_k|^2 at each grid node
(`WWTrajectory.photon`), not the mode amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import NON_FINITE, LinkParams, TimeGrid, Trajectory, eval_pulse, make_grid

_MAX_PHASE_STEP = 0.5
_BLOCK = 16  # steps whose phase rows and photon sums are made together


@dataclass(frozen=True)
class ModeSet:
    """Mode ladder of the link: frequencies, end parities, integer indices."""

    omegas: np.ndarray
    parity: np.ndarray
    indices: np.ndarray

    @property
    def n_modes(self) -> int:
        return int(self.omegas.size)


def build_modes(link: LinkParams, n_modes: int) -> ModeSet:
    """Ladder of n_modes (odd) centered on the mode nearest Delta.

    A ladder that would reach below the lowest mode omega = fsr is shifted
    up so it always starts at the first physical mode.
    """
    if n_modes < 1 or n_modes % 2 == 0:
        raise ValueError("n_modes must be odd and >= 1")
    fsr = link.fsr
    j_center = max(1, int(round(link.delta / fsr)))
    j0 = j_center - (n_modes - 1) // 2
    if j0 < 1:
        j0 = 1
    idx = np.arange(j0, j0 + n_modes)
    return ModeSet(
        omegas=idx * fsr,
        parity=np.where(idx % 2 == 0, 1.0, -1.0),
        indices=idx,
    )


def steps_for_modes(link: LinkParams, modes: ModeSet, base: int) -> int:
    """Least multiple of `base` steps per tau (so the oracle's columns decimate
    onto the base grid) keeping h * max|omega_k - Delta| under _MAX_PHASE_STEP.
    """
    make_grid(link.tau, link.tau, base)  # a base make_grid rejects fails here
    nu_max = float(np.max(np.abs(modes.omegas - link.delta)))
    needed = math.ceil(nu_max * link.tau / _MAX_PHASE_STEP) + 1
    return base * max(1, math.ceil(needed / base))


@dataclass
class WWTrajectory(Trajectory):
    """Trajectory plus the link-photon record of the mode-resolved run."""

    photon: np.ndarray = field(default_factory=lambda: np.empty(0))
    modes: ModeSet | None = None

    def photon_number(self) -> np.ndarray:
        return self.photon


def evolve_ww(link: LinkParams, modes: ModeSet, pulses, c0, grid: TimeGrid) -> WWTrajectory:
    """Fixed-step RK4 integration of the emitter + mode amplitudes.

    pulses: (pulse1, pulse2), whose samples must be finite; c0: initial
    (c1, c2).  The mode loop is vectorized with a fixed summation order, so
    results are reproducible bit-for-bit.

    Steps go in blocks of _BLOCK, each making its phase rows in one exp
    call.  A step's start phases are those of the last step's end where
    i h equals t + h, as in a step-at-a-time loop, whose results it keeps.
    """
    if len(pulses) != 2:
        raise ValueError("evolve_ww needs exactly two pulses")
    c01, c02 = complex(c0[0]), complex(c0[1])
    if not abs(c01) ** 2 + abs(c02) ** 2 <= 1.0 + 1e-9:  # NaN fails too
        raise ValueError("initial amplitudes must be finite with norm <= 1 "
                         f"(the single-excitation sector), got {(c01, c02)!r}")
    i_nu = -1j * (modes.omegas - link.delta)
    h = grid.h
    if h * float(np.max(np.abs(i_nu))) > _MAX_PHASE_STEP:
        raise ValueError("grid too coarse for this mode ladder: "
                         f"need h * max|omega_k - Delta| <= {_MAX_PHASE_STEP}")
    N = grid.n_steps
    t_nodes = grid.times()
    gamma = np.array([eval_pulse(p, t_nodes) for p in pulses], dtype=float)
    scale = 1.0 / math.sqrt(2.0 * link.tau)
    g_h = (scale * np.sqrt([eval_pulse(p, t_nodes[:-1] + 0.5 * h) for p in pulses])).T
    if not (np.isfinite(scale * np.sqrt(gamma)).all() and np.isfinite(g_h).all()):
        raise ValueError(NON_FINITE)
    s = modes.parity
    odd = (s < 0).astype(np.intp)
    sum_ = np.add.reduce  # np.sum's pairwise reduction, without its wrapper

    c = np.empty((2, N + 1), dtype=complex)
    photon = np.empty(N + 1)
    c[:, 0] = c01, c02
    a = np.zeros(modes.n_modes, dtype=complex)  # mode amplitudes alpha_k
    photon[0] = sum_(np.abs(a) ** 2)
    # per block: alpha after each step, and per phase time t a row (ph, s ph,
    # back), ph = e^{-i nu t}, back = -i e^{+i nu t}; row 0: the last block's end
    alphas = np.empty((min(N, _BLOCK), modes.n_modes), dtype=complex)
    phase = np.empty((3 * len(alphas) + 1, 3, modes.n_modes), dtype=complex)
    rows = list(zip(phase[:, :2], phase[:, 2]))

    def rhs(rows, back, a, x1, x2, g1, g2):
        # returns (dc1, dc2, dalpha).  Since s = +-1, (s ph) a = s (ph a)
        # exactly, and the forcing g1 x1 + g2 x2 s takes two values; the
        # factors 1.0 and -1.0 round signed zeros as numpy's x * s does
        sa1, sa2 = sum_(rows * a, 1).tolist()
        f1, f2 = g1 * x1, g2 * x2
        force = np.array((f1 + f2 * 1.0, f1 + f2 * -1.0))[odd]
        return -1j * g1 * sa1, -1j * g2 * sa2, back * force

    hh, h6 = 0.5 * h, h / 6.0
    # the emitter amplitudes stay Python complex: numpy scalar arithmetic
    # rounds the same but dispatches on every operation
    x1, x2 = c01, c02
    end = math.nan
    for i0 in range(0, N, _BLOCK):
        i1 = min(i0 + _BLOCK, N)
        # distinct phase times in step order: a start unless it equals the
        # last step's end, a midpoint and an end; first[j]: step j's start row
        times, first = [end], []
        for t in t_nodes[i0:i1].tolist():
            if t != end:
                times.append(t)
            first.append(len(times) - 1)
            end = t + h
            times += (t + hh, end)
        R = len(times)
        ph = phase[1:R, 0]
        np.exp(np.multiply.outer(np.array(times[1:], dtype=complex), i_nu, out=ph), out=ph)
        np.multiply(ph, s, out=phase[1:R, 1])
        np.multiply(np.conj(ph, out=phase[1:R, 2]), -1j, out=phase[1:R, 2])
        gn = (scale * np.sqrt(gamma[:, i0:i1 + 1])).T.tolist()  # (g1, g2) at each node
        gm = g_h[i0:i1].tolist()
        for j, r in enumerate(first):
            ph0, phh, ph1 = rows[r:r + 3]
            k1 = rhs(*ph0, a, x1, x2, *gn[j])
            k2 = rhs(*phh, a + hh * k1[2], x1 + hh * k1[0], x2 + hh * k1[1], *gm[j])
            k3 = rhs(*phh, a + hh * k2[2], x1 + hh * k2[0], x2 + hh * k2[1], *gm[j])
            k4 = rhs(*ph1, a + h * k3[2], x1 + h * k3[0], x2 + h * k3[1], *gn[j + 1])
            x1 = x1 + h6 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            x2 = x2 + h6 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            c[:, i0 + j + 1] = x1, x2
            a = np.add(a, h6 * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]), out=alphas[j])
        photon[i0 + 1:i1 + 1] = sum_(np.abs(alphas[:i1 - i0]) ** 2, 1)
        phase[0] = phase[R - 1]

    # a placeholder echo field; np.zeros, unlike np.zeros_like, leaves its
    # pages untouched
    return WWTrajectory(
        grid=grid, c=c, gamma_samples=gamma,
        b_out=np.zeros(c.shape, dtype=complex), echo_delay_steps=2 * grid.steps_per_tau,
        echo_phase=2.0 * link.phi, photon=photon, modes=modes,
    )


def unitarity_defect(traj: WWTrajectory) -> float:
    """max_t |sum_l |c_l|^2 + sum_k |alpha_k|^2 - 1| over the run."""
    total = np.sum(np.abs(traj.c) ** 2, axis=0) + traj.photon
    return float(np.max(np.abs(total - 1.0)))

