"""Method-of-steps RK4 integrator for the one- and two-emitter delay equations.

The two-emitter equation of motion is

    dc_l/dt = -(gamma_l(t)/2) c_l
              - sqrt(gamma_l(t)) [e^{i 2 phi} b_l(t - 2 tau)
                                  + e^{i phi} b_{3-l}(t - tau)],

with the echo field maintained by the exact on-grid recursion

    b_l(t) = sqrt(gamma_l(t)) c_l(t) + e^{i 2 phi} b_l(t - 2 tau),
    b_l(t < 0) = 0.

A lone emitter drops the cross term, and its round trip (2 tau, 2 phi)
may be replaced by any (T_rt, Phi) with T_rt a whole number of steps.

The grid step divides tau, so every echo arrival (and hence every
derivative kink) sits on a grid node and no RK4 step straddles one.
Delayed values at RK half-stages are obtained by cubic interpolation of
the echo history, with stencils chosen inside the smooth pieces between
consecutive kink nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .core import LinkParams, PulseProfile, TimeGrid, Trajectory, TWO_PI, eval_pulse

# cubic Lagrange weights for a value midway between stencil nodes
# rows: delayed point between nodes (S, S+1), (S+1, S+2), (S+2, S+3)
_HALF_W = (
    (0.3125, 0.9375, -0.3125, 0.0625),
    (-0.0625, 0.5625, 0.5625, -0.0625),
    (0.0625, -0.3125, 0.9375, 0.3125),
)

_NORM_SLACK = 1e-9


def _stencils(period: int):
    """Half-node stencils for one smooth piece [p, p + period] of an echo.

    Row r, for the half node between p + r and p + r + 1, is (s, w0..w3):
    the cubic through nodes p + s .. p + s + 3, which all lie in the piece,
    so no stencil bridges a derivative kink.
    """
    rows = []
    for r in range(period):
        s = 0 if r == 0 else min(r - 1, period - 3)
        rows.append((s, *_HALF_W[r - s]))
    return rows


def _check_norm(c: np.ndarray) -> None:
    n = np.sum(np.abs(c) ** 2, axis=0)
    worst = float(np.max(n))
    if worst > 1.0 + _NORM_SLACK:
        raise RuntimeError(
            f"single-excitation norm exceeded 1 by {worst - 1.0:.3e}; grid too coarse"
        )


def _method_of_steps(link: LinkParams, pulses, c0, grid: TimeGrid, R: int,
                     big_phi: float) -> Trajectory:
    """RK4 over the method-of-steps grid for one emitter or a pair.

    Each emitter hears its own echo R steps back with phase e^{i big_phi};
    in a pair it also hears its partner's echo M = steps_per_tau steps back
    with phase e^{i big_phi/2}.  Kinks sit every P steps, P the shortest
    delay (M for a pair, R for one emitter).  R and M are multiples of P,
    so every delayed read made while stepping through a P-step block lands
    at or before the block start: each block first assembles the echo its
    steps hear, then steps each emitter through it.

    The echo history is kept three ways, each padded with R zeros for
    t < 0: b holds node values (right limits), bm left limits and bh
    half-node values.  b and bm follow the same recursion
    b(t) = sqrt(gamma) c + e^{i big_phi} b(t - R), with bm = 0 at t = 0-,
    so they differ only on multiples of R, where the turn-on jump replays.
    A step's endpoint and a half-node stencil's top node close a smooth
    piece and read bm; every other node reads b.
    """
    L = len(pulses)
    h, N, M = grid.h, grid.n_steps, grid.steps_per_tau
    P = M if L == 2 else R
    cross = R - M  # shift from an emitter's own echo to its partner's
    e_self = complex(np.exp(1j * math.fmod(big_phi, TWO_PI)))
    e_cross = complex(np.exp(1j * math.fmod(0.5 * big_phi, TWO_PI)))
    # a lone emitter's phase rides on its coupling, (-sqrt(gamma) e^{i Phi}) b:
    # the other association, -sqrt(gamma) (e^{i Phi} b), rounds differently
    lone = 1.0 if L == 2 else e_self

    # per emitter: -gamma/2 and the echo coupling at nodes and half nodes,
    # and sqrt(gamma) at nodes
    t = grid.times()
    gamma, coef = [], []
    for pulse in pulses:
        g = np.asarray(eval_pulse(pulse, t), dtype=float)
        gh = np.asarray(eval_pulse(pulse, t[:-1] + 0.5 * h), dtype=float)
        sg, sgh = np.sqrt(g), np.sqrt(gh)
        gamma.append(g)
        coef.append(((-0.5 * g).tolist(), (-0.5 * gh).tolist(), (-sg * lone).tolist(),
                     (-sgh * lone).tolist(), sg.tolist()))
    c = [[y0] + [0j] * N for y0 in c0]
    hist = [tuple([0j] * (R + N + 1) for _ in range(3)) for _ in range(L)]
    for (b, _, _), (*_, sg), y0 in zip(hist, coef, c0):
        b[R] = sg[0] * y0

    def heard(l, x, j, n):
        """n values of the echo emitter l hears, from history x, from index j."""
        own = hist[l][x][j:j + n]
        if L == 1:  # its phase is on the coupling
            return own
        other = hist[1 - l][x][j + cross:j + cross + n]
        return [e_self * u + e_cross * v for u, v in zip(own, other)]

    stencils = _stencils(P)
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(0, N, P):
        n = min(P, N - k)
        p = k - P + R
        # the echo piece [k - P, k] is complete: fill its half nodes
        for b, bh, bm in hist:
            bh[p:p + P] = [w0 * b[p + s] + w1 * b[p + s + 1] + w2 * b[p + s + 2]
                           + w3 * bm[p + s + 3] for s, w0, w1, w2, w3 in stencils]
        for l, (cl, (b, _, bm), (a, ah, A, Ah, sg)) in enumerate(zip(c, hist, coef)):
            y = cl[k]
            # echo at step starts (b), half nodes (bh) and step ends (bm)
            for i, E0, Eh, E1 in zip(range(k, k + n), heard(l, 0, k, n),
                                     heard(l, 1, k, n), heard(l, 2, k + 1, n)):
                F0 = A[i] * E0
                Fh = Ah[i] * Eh
                F1 = A[i + 1] * E1
                k1 = a[i] * y + F0
                k2 = ah[i] * (y + half * k1) + Fh
                k3 = ah[i] * (y + half * k2) + Fh
                k4 = a[i + 1] * (y + h * k3) + F1
                y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
                cl[i + 1] = y
                x = sg[i + 1] * y
                b[i + 1 + R] = x + e_self * b[i + 1]
                bm[i + 1 + R] = x + e_self * bm[i + 1]

    c_arr = np.array(c)
    _check_norm(c_arr)
    return Trajectory(grid=grid, link=link, c=c_arr,
                      gamma_samples=np.array(gamma),
                      b_out=np.array([b[R:] for b, _, _ in hist]),
                      echo_delay_steps=R, echo_phase=big_phi)


def evolve_pair(link: LinkParams, pulse1: PulseProfile, pulse2: PulseProfile,
                c0, grid: TimeGrid) -> Trajectory:
    """Integrate the two-emitter DDE from initial amplitudes c0 = (c1, c2)."""
    c01, c02 = complex(c0[0]), complex(c0[1])
    if abs(c01) ** 2 + abs(c02) ** 2 > 1.0 + _NORM_SLACK:
        raise ValueError("initial amplitudes exceed the single-excitation sector")
    M = grid.steps_per_tau
    if abs(M * grid.h - link.tau) > 1e-12 * link.tau:
        raise ValueError("grid is not aligned with the link delay tau")
    return _method_of_steps(link, (pulse1, pulse2), (c01, c02), grid, 2 * M,
                            2.0 * link.phi)


def evolve_single(link: LinkParams, pulse: PulseProfile, c0: complex,
                  grid: TimeGrid, round_trip=None) -> Trajectory:
    """Integrate the single-emitter DDE.

    round_trip = (T_rt, Phi) selects the echo convention: the two-ended
    geometry uses (2*tau, 2*phi) (the default); the series-solution
    convention uses (tau, phi).  T_rt must be a whole number of grid steps.
    """
    c0 = complex(c0)
    if abs(c0) > 1.0 + _NORM_SLACK:
        raise ValueError("initial amplitude exceeds the single-excitation sector")
    if round_trip is None:
        t_rt, big_phi = 2.0 * link.tau, 2.0 * link.phi
    else:
        t_rt, big_phi = round_trip
    h = grid.h
    R = int(round(t_rt / h))
    if R < 4 or abs(R * h - t_rt) > 1e-9 * t_rt:
        raise ValueError("round-trip time must be a whole number (>= 4) of grid steps")
    return _method_of_steps(link, (pulse,), (c0,), grid, R, big_phi)


def output_field(traj: Trajectory, l: int, t: float) -> complex:
    """Echo field b_l^out(t) at a grid point, from the stored recursion."""
    if t < 0:
        return 0j
    i = traj.grid.index_of(t)
    return complex(traj.b_out[l, i])


def output_field_sum(traj: Trajectory, l: int, t: float) -> complex:
    """Echo field via the explicit truncated sum over past emissions.

    Independent of the recursion; used to cross-check it.
    """
    if t < 0:
        return 0j
    i = traj.grid.index_of(t)
    R = traj.echo_delay_steps
    phi_e = traj.echo_phase
    total = 0j
    n = 0
    while i - n * R >= 0:
        j = i - n * R
        amp = math.sqrt(traj.gamma_samples[l, j]) * traj.c[l, j]
        total += complex(np.exp(1j * math.fmod(n * phi_e, TWO_PI))) * amp
        n += 1
    return total


def _kinks(traj: Trajectory, x, kind):
    """One-sided third-order derivative jumps of x at the echo arrival nodes."""
    R = traj.echo_delay_steps
    h = traj.grid.h
    N = traj.grid.n_steps
    out = []
    k = R
    while k + 3 <= N:
        left = (-2.0 * x[k - 3] + 9.0 * x[k - 2] - 18.0 * x[k - 1] + 11.0 * x[k]) / (6.0 * h)
        right = (-11.0 * x[k] + 18.0 * x[k + 1] - 9.0 * x[k + 2] + 2.0 * x[k + 3]) / (6.0 * h)
        out.append((k * h, kind(right - left)))
        k += R
    return out


def derivative_kinks(traj: Trajectory, link: LinkParams):
    """Measured one-sided derivative jumps of c at the echo arrival nodes.

    Uses third-order one-sided finite differences on the grid; valid for
    constant-coupling single-emitter trajectories.
    """
    return _kinks(traj, traj.c[0], complex)


def population_kinks(traj: Trajectory, link: LinkParams):
    """One-sided derivative jumps of the excited-state population |c|^2."""
    return _kinks(traj, np.abs(traj.c[0]) ** 2, float)
