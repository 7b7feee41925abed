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

A run keeps c and the link photon number sum_k |alpha_k|^2 (`photon`) at
every `every`-th grid node, not the mode amplitudes.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import LinkParams, TimeGrid, Trajectory, make_grid, run_inputs

_MAX_PHASE_STEP = 0.5
_BLOCK = 16  # steps whose phase rows and photon sums are made together


@dataclass(frozen=True)
class ModeSet:
    """Mode ladder of the link: frequencies and end parities."""

    omegas: np.ndarray
    parity: np.ndarray

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
    return ModeSet(omegas=idx * fsr, parity=np.where(idx % 2 == 0, 1.0, -1.0))


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
    """Trajectory plus the oracle's link-photon record; c (complex, writable) and photon at t."""

    photon: np.ndarray = field(default_factory=lambda: np.empty(0))
    modes: ModeSet | None = None
    every: int = 1

    @property
    def t(self) -> np.ndarray:
        return np.arange(0, self.grid.n_steps + 1, self.every) * self.grid.h

    def photon_number(self) -> np.ndarray:
        return self.photon

    def amplitude_at(self, l: int, t: float) -> complex:
        if self.every > 1:
            raise ValueError(f"amplitude_at needs every node; this run kept every {self.every}th")
        return super().amplitude_at(l, t)


def _exp_rows(todo, started, done):
    """Worker of one evolve_ww call: take each posted phase argument in turn,
    say so on `started`, make it its exponential in place and say so on
    `done`; None ends it.  An exception goes back on `done`, where the
    caller raises it, and ends the worker."""
    try:
        while (arg := todo.get()) is not None:
            started.put(None)
            np.exp(arg, out=arg)
            done.put(None)
    except BaseException as exc:  # raised again by the caller
        done.put(exc)


def evolve_ww(link: LinkParams, modes: ModeSet, pulses, c0, grid: TimeGrid,
              every: int = 1) -> WWTrajectory:
    """Fixed-step RK4 integration of the emitter + mode amplitudes.

    pulses: (pulse1, pulse2); c0: initial (c1, c2); core.run_inputs checks
    both before the first step; c and photon keep every `every`-th node.  The
    mode loop is vectorized in a fixed summation order: results reproduce bit for bit.

    Steps go in blocks of _BLOCK, each making its phase rows in one exp
    call.  A step's start phases are those of the last step's end where
    i h equals t + h, as in a step-at-a-time loop, whose results it keeps.
    The next block's exp call runs on a worker thread (numpy releases the
    GIL in it) while this block steps; the worker is joined before the
    call returns or raises.
    """
    if len(pulses) != 2:
        raise ValueError("evolve_ww needs exactly two pulses")
    if not (isinstance(every, int) and not isinstance(every, bool) and every >= 1):
        raise ValueError(f"every must be an int >= 1, got {every!r}")
    i_nu = -1j * (modes.omegas - link.delta)
    h = grid.h
    if h * float(np.max(np.abs(i_nu))) > _MAX_PHASE_STEP:
        raise ValueError("grid too coarse for this mode ladder: "
                         f"need h * max|omega_k - Delta| <= {_MAX_PHASE_STEP}")
    (x1, x2), gamma, g_h = run_inputs(pulses, (c0[0], c0[1]), grid)
    N = grid.n_steps
    scale = 1.0 / math.sqrt(2.0 * link.tau)
    g_h = np.multiply(scale, np.sqrt(g_h, out=g_h), out=g_h).T  # (g1, g2) at each half node
    s = modes.parity
    odd = (s < 0).astype(np.intp)
    sum_ = np.add.reduce  # np.sum's pairwise reduction, without its wrapper

    c = np.empty((2, N // every + 1), dtype=complex)
    photon = np.empty(N // every + 1)
    c[:, 0] = x1, x2
    a = np.zeros(modes.n_modes, dtype=complex)  # mode amplitudes alpha_k
    photon[0] = sum_(np.abs(a) ** 2)
    # per block: alpha after each step, and per phase time t a row of the
    # planes ph, s ph and back, ph = e^{-i nu t}, back = -i e^{+i nu t}; row
    # 0: the last block's end.  `spare` holds the next block's ph rows
    alphas = np.empty((min(N, _BLOCK), modes.n_modes), dtype=complex)
    phase = np.empty((3, 3 * len(alphas) + 1, modes.n_modes), dtype=complex)
    spare = np.empty((3 * len(alphas), modes.n_modes), dtype=complex)
    rows = list(zip(phase[:2].swapaxes(0, 1), phase[2]))
    todo, started, done = queue.SimpleQueue(), queue.SimpleQueue(), queue.SimpleQueue()
    hh, h6 = 0.5 * h, h / 6.0

    def post(i0, end):
        # distinct phase times in step order: a start unless it equals the
        # last step's end, a midpoint and an end; first[j]: step j's start
        # row.  Their arguments go to the worker, which takes the GIL for its
        # exp call before this returns.  Returns (R, first, the last end)
        times, first = [end], []
        for t in (np.arange(i0, min(i0 + _BLOCK, N)) * h).tolist():
            if t != end:
                times.append(t)
            first.append(len(times) - 1)
            end = t + h
            times += (t + hh, end)
        R = len(times)
        todo.put(np.multiply.outer(np.array(times[1:], dtype=complex), i_nu, out=spare[:R - 1]))
        started.get()
        return R, first, end

    # this call's own step buffers (threads share none): rows * a, its two
    # sums, the four stages' dalpha, a stage's alpha then the update's sum,
    # the forcing's values
    mul, add = np.multiply, np.add  # out positional: a faster dispatch than out=
    pa, sums = np.empty((2, modes.n_modes), dtype=complex), np.empty(2, dtype=complex)
    k1, k2, k3, k4 = np.empty((4, modes.n_modes), dtype=complex)
    stage, fv = np.empty(modes.n_modes, dtype=complex), np.empty(2, dtype=complex)
    # the mode rows' step scalars as 0-d complex arrays: numpy casts a Python
    # float to this same value, so the same complex loop runs, dispatched for less
    c_hh, c_h, c_2, c_h6 = (np.array(v, dtype=complex) for v in (hh, h, 2.0, h6))
    half, full = (hh, c_hh), (h, c_h)  # a stage's scale to the next stage's input

    worker = threading.Thread(target=_exp_rows, args=(todo, started, done))
    worker.start()
    try:
        nxt = post(0, math.nan)
        # the emitter amplitudes x1, x2 stay Python complex: numpy scalar
        # arithmetic rounds the same but dispatches on every operation
        for i0 in range(0, N, _BLOCK):
            i1 = min(i0 + _BLOCK, N)
            R, first, end = nxt
            err = done.get()
            if err is not None:
                raise err
            ph = phase[0, 1:R]
            np.copyto(ph, spare[:R - 1])
            np.multiply(ph, s, out=phase[1, 1:R])
            np.multiply(np.conj(ph, out=phase[2, 1:R]), -1j, out=phase[2, 1:R])
            if i1 < N:
                nxt = post(i1, end)
            gn = (scale * np.sqrt(gamma[:, i0:i1 + 1])).T.tolist()  # (g1, g2) at each node
            gm = g_h[i0:i1].tolist()
            xs1, xs2 = [], []
            for j, r in enumerate(first):
                ph0, phh, ph1 = rows[r:r + 3]
                y, u1, u2, dx = a, x1, x2, []
                for (rw, back), (g1, g2), da, w in ((ph0, gn[j], k1, half), (phh, gm[j], k2, half),
                                                     (phh, gm[j], k3, full), (ph1, gn[j + 1], k4, None)):
                    # dc onto dx, dalpha into da.  Since s = +-1, (s ph) y = s (ph y)
                    # exactly, and the forcing g1 u1 + g2 u2 s takes two values (1.0
                    # and -1.0 round signed zeros as u * s does); take's "clip" fills
                    # da with no copy
                    sa1, sa2 = sum_(mul(rw, y, pa), 1, None, sums).tolist()
                    f1, f2 = g1 * u1, g2 * u2
                    fv[0], fv[1] = f1 + f2 * 1.0, f1 + f2 * -1.0
                    mul(back, fv.take(odd, None, da, "clip"), da)
                    p, q = -1j * g1 * sa1, -1j * g2 * sa2
                    dx += p, q
                    if w:
                        y = add(a, mul(w[1], da, stage), stage)
                        u1, u2 = x1 + w[0] * p, x2 + w[0] * q
                p1, q1, p2, q2, p3, q3, p4, q4 = dx
                x1 = x1 + h6 * (p1 + 2.0 * (p2 + p3) + p4)
                x2 = x2 + h6 * (q1 + 2.0 * (q2 + q3) + q4)
                xs1.append(x1)
                xs2.append(x2)
                add(k1, mul(c_2, add(k2, k3, stage), stage), stage)  # h6 (k1 + 2 (k2 + k3) + k4)
                a = add(a, mul(c_h6, add(stage, k4, stage), stage), alphas[j])
            lo, hi = -(-(i0 + 1) // every), i1 // every + 1  # the block's kept nodes / every
            j0 = lo * every - i0 - 1  # the step ending on the first of them
            c[0, lo:hi], c[1, lo:hi] = xs1[j0::every], xs2[j0::every]
            photon[lo:hi] = sum_(np.abs(alphas[j0:i1 - i0:every]) ** 2, 1)
            phase[:, 0] = phase[:, R - 1]
    finally:
        todo.put(None)
        worker.join()

    return WWTrajectory(grid=grid, c=c, echo_delay_steps=2 * grid.steps_per_tau,
                        photon=photon, modes=modes, every=every)


def unitarity_defect(traj: WWTrajectory) -> float:
    """max_t |sum_l |c_l|^2 + sum_k |alpha_k|^2 - 1| over the run's kept nodes."""
    total = np.sum(np.abs(traj.c) ** 2, axis=0) + traj.photon
    return float(np.max(np.abs(total - 1.0)))

