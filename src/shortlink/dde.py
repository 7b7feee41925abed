"""Block-vectorized method of steps for the one- and two-emitter delay equations.

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
Each equation is linear and its forcing was emitted at least one shortest
delay earlier, so over a block of steps that long all but the RK4 stages
of c are whole-array operations; those stages stay a Python loop, rounded
exactly as a step-at-a-time integrator rounds them (real parts alone in a
real problem).  A run resumes at the last block it shares with the last run
of as many emitters, and sets up its coefficients from there on only.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .core import (NON_FINITE, LinkParams, PulseProfile, TimeGrid, Trajectory,
                   _lagrange_weights, eval_pulse, phase_factor)

# cubic Lagrange weights for a value midway between stencil nodes
# rows: delayed point between nodes (S, S+1), (S+1, S+2), (S+2, S+3)
_HALF_W = np.array([_lagrange_weights(x) for x in (0.5, 1.5, 2.5)])

_NORM_SLACK = 1e-9

# per emitter count, the last run's key, samples per step, c and history;
# never written once stored
_last = {}


def _stencil(w, nodes):
    """Cubic interpolation w[0] x0 + w[1] x1 + w[2] x2 + w[3] x3, summed left to right."""
    return w[0] * nodes[0] + w[1] * nodes[1] + w[2] * nodes[2] + w[3] * nodes[3]


def _cmul(z, w):
    """z * w rounded as Python rounds it; numpy may fuse complex multiply-adds.

    w is a complex array and z a complex scalar or an array of w's shape.
    """
    out = np.empty(w.shape, dtype=complex)
    out.real = z.real * w.real - z.imag * w.imag
    out.imag = z.real * w.imag + z.imag * w.real
    return out


def _part_lists(x):
    """Each row of a complex array as two lists of floats, real parts then imaginary."""
    return [r[s::2] for r in x.view(float).tolist() for s in (0, 1)]


def _check_norm(c: np.ndarray, samples: np.ndarray, h: float) -> None:
    """Fail a run whose norm left [0, 1]: blame non-finite couplings, else the grid."""
    excess = float(np.max(np.sum(np.abs(c) ** 2, axis=0))) - 1.0
    if excess <= _NORM_SLACK:
        return
    if not np.isfinite(samples).all():
        raise RuntimeError(NON_FINITE)
    grew = f"exceeded 1 by {excess:.3e}" if math.isfinite(excess) else "diverged"
    raise RuntimeError(f"single-excitation norm {grew}; grid too coarse "
                       f"(gamma_max*h = {float(np.max(samples)) * h:.3g})")


def _check_initial(c0) -> tuple:
    """Initial amplitudes, finite and of norm at most 1; -0 parts read +0."""
    c0 = tuple(complex(z) + 0.0 for z in c0)
    norm = sum(abs(z) ** 2 for z in c0)
    if not (math.isfinite(norm) and norm <= 1.0 + _NORM_SLACK):
        raise ValueError(f"initial amplitudes must be finite with norm <= 1, got {c0!r}")
    return c0


def _rk4_steps(y, a, ah, f, fh, h):
    """Real RK4 steps of dy/dt = a y + f from y; ah and fh at the midpoints."""
    half, sixth = 0.5 * h, h / 6.0
    out = []
    for a0, a_h, a_1, f0, f_h, f1 in zip(a, ah, a[1:], f, fh, f[1:]):
        k1 = a0 * y + f0
        k2 = a_h * (y + half * k1) + f_h
        k3 = a_h * (y + half * k2) + f_h
        k4 = a_1 * (y + h * k3) + f1
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(y)
    return out


# a diverging run overflows and makes NaN on its way to _check_norm's error
@np.errstate(over="ignore", invalid="ignore")
def _method_of_steps(pulses, c0, grid: TimeGrid, R: int, big_phi: float) -> Trajectory:
    """RK4 over the method-of-steps grid for one emitter or a pair, by blocks.

    Each emitter hears its own echo R steps back with phase e^{i big_phi}
    and, in a pair, its partner's M = steps_per_tau steps back with
    e^{i big_phi/2}.  Kinks sit every P steps, P the shortest delay (M for
    a pair, R alone), so a P-step block hears one smooth piece of echo, all
    emitted before the block.  The history is padded with R zeros for t < 0
    and kept three ways: b (right limits, returned as b_out), bh (half
    nodes) and bm (left limits, 0 at t = 0-); b and bm differ only on
    multiples of R, where the turn-on jump replays, so a stencil's top node
    and a block's end read bm.  A lone emitter's phase rides on its
    coupling, (-sqrt(gamma) e^{i Phi}) b.

    If both phases and c0 have +0 imaginary parts (Delta = 0), the arrays
    are real: the complex route's imaginary parts would all stay +0 (a -0
    could flip a zero's sign) and its real parts round as these do.  Only
    a complex product goes through _cmul, chosen once per run: a phase's
    and a lone emitter's coupling; a pair's couplings are real.  Each block
    turns its forcing into Python floats with one tolist() per array.

    A run with the last run's L, h, R, P, big_phi and c0 (one stored run
    per L) copies c and the history up to K, the last block boundary
    before the first step whose samples changed, and resumes there;
    nothing before K reads anything else.  Only the pulse samples cover
    the whole grid: square roots, couplings and coefficient lists start
    at K.
    """
    L = len(pulses)
    h, N, M = grid.h, grid.n_steps, grid.steps_per_tau
    P = M if L == 2 else R
    cross = R - M  # shift from an emitter's own echo to its partner's
    e_self, e_cross = phase_factor(big_phi), phase_factor(0.5 * big_phi)
    real = not any(z.imag or math.copysign(1.0, z.imag) < 0 for z in (e_self, e_cross, *c0))
    if real:
        e_self, e_cross, c0 = e_self.real, e_cross.real, tuple(z.real for z in c0)
    by_phase = operator.mul if real else _cmul
    by_coupling = by_phase if L == 1 else operator.mul

    t = grid.times()
    gamma = np.array([eval_pulse(p, t) for p in pulses], dtype=float)
    gh = np.array([eval_pulse(p, t[:-1] + 0.5 * h) for p in pulses], dtype=float)
    key = repr((L, h, R, P, big_phi, c0))  # repr tells -0.0 from 0.0
    samples = np.concatenate((gamma[:, :-1], gh, gamma[:, 1:]))  # a column per step
    last_key, last_samples, c_last, hist_last = _last.get(L, (None,) * 4)
    K = 0
    if key == last_key:
        changed = (samples[:, :last_samples.shape[1]] != last_samples[:, :N]).any(axis=0)
        K = np.append(changed, True).argmax() // P * P

    # from here on, column j of the coefficients is grid step K + j
    g, gh = gamma[:, K:], gh[:, K:]
    sg = np.sqrt(g)
    lone = 1.0 if L == 2 else e_self
    coupling, coupling_h = -sg * lone, -np.sqrt(gh) * lone
    a, ah = (-0.5 * g).tolist(), (-0.5 * gh).tolist()

    c = np.zeros((L, N + 1), dtype=float if real else complex)
    hist = np.zeros((3, L, R + N + 1), dtype=c.dtype)  # b, bh, bm
    b, bh, bm = hist
    if K:  # resume at the last block boundary before the first changed step
        c[:, :K + 1] = c_last[:, :K + 1]
        hist[:, :, :K + R + 1] = hist_last[:, :, :K + R + 1]
    else:
        c[:, 0] = c0
        b[:, R] = sg[:, 0] * c[:, 0]
    # the RK4 loop steps rows of c: each emitter's, or its real and imaginary parts
    if real:
        rows, emitters, as_lists = list(c), range(L), np.ndarray.tolist
    else:
        rows = [x for row in c for x in (row.real, row.imag)]
        emitters, as_lists = [l for l in range(L) for _ in (0, 1)], _part_lists

    for k in range(K, N, P):
        n, j = min(P, N - k), k - K
        # the echo piece [k - P, k] has closed: fill its half nodes, centred
        # cubics inside, and at either end the cubic through the end nodes
        p = k - P + R
        nodes = (b[:, p:p + P - 2], b[:, p + 1:p + P - 1], b[:, p + 2:p + P],
                 bm[:, p + 3:p + P + 1])
        bh[:, p + 1:p + P - 1] = _stencil(_HALF_W[1], nodes)
        bh[:, p:p + P:P - 1] = _stencil(_HALF_W[::2].T, [x[:, ::P - 3] for x in nodes])
        # echo heard from b, bh and bm; a step ends where the next starts,
        # on b, but the block's last ends on a left limit
        E = hist[:, :, k:k + n + 1]
        if L == 2:
            E = by_phase(e_self, E) + by_phase(e_cross, hist[:, ::-1, k + cross:k + cross + n + 1])
        F = by_coupling(coupling[:, j:j + n + 1], E[0])
        F[:, n] = by_coupling(coupling[:, j + n], E[2, :, n])
        Fh = by_coupling(coupling_h[:, j:j + n], E[1, :, :n])
        # Real coefficients step the real and imaginary parts apart, as
        # Python's complex a * y does but for signed zeros (0 * y.imag) that
        # matter only to a part at -0, which c0 rules out; a part at +0 with
        # no forcing stays at +0.
        for row, l, f, fh in zip(rows, emitters, as_lists(F), as_lists(Fh)):
            y0 = float(row[k])
            if y0 or any(f) or any(fh):
                row[k + 1:k + n + 1] = _rk4_steps(y0, a[l][j:j + n + 1], ah[l][j:j + n], f, fh, h)
        x = sg[:, j + 1:j + n + 1] * c[:, k + 1:k + n + 1]
        hist[::2, :, k + 1 + R:k + n + 1 + R] = x + by_phase(e_self, hist[::2, :, k + 1:k + n + 1])

    _check_norm(c[:, K:], samples, h)  # a stored run passed it
    _last[L] = (key, samples, c, hist)
    return Trajectory(grid=grid, c=c.astype(complex), gamma_samples=gamma,
                      b_out=b[:, R:].astype(complex), echo_delay_steps=R, echo_phase=big_phi)


def evolve_pair(link: LinkParams, pulse1: PulseProfile, pulse2: PulseProfile,
                c0, grid: TimeGrid) -> Trajectory:
    """Integrate the two-emitter DDE from initial amplitudes c0 = (c1, c2)."""
    c0 = _check_initial((c0[0], c0[1]))
    M = grid.steps_per_tau
    if M < 4 or abs(M * grid.h - link.tau) > 1e-12 * link.tau:
        raise ValueError("tau must be a whole number (>= 4) of grid steps")
    return _method_of_steps((pulse1, pulse2), c0, grid, 2 * M, 2.0 * link.phi)


def evolve_single(link: LinkParams, pulse: PulseProfile, c0: complex,
                  grid: TimeGrid, round_trip=None) -> Trajectory:
    """Integrate the single-emitter DDE.

    round_trip = (T_rt, Phi) selects the echo convention: the two-ended
    geometry uses (2*tau, 2*phi) (the default); the series-solution
    convention uses (tau, phi).  T_rt must be a whole number of grid steps.
    """
    c0 = _check_initial((c0,))
    if round_trip is None:
        t_rt, big_phi = 2.0 * link.tau, 2.0 * link.phi
    else:
        t_rt, big_phi = round_trip
    h = grid.h
    R = int(round(t_rt / h))
    if R < 4 or abs(R * h - t_rt) > 1e-9 * t_rt:
        raise ValueError("round-trip time must be a whole number (>= 4) of grid steps")
    return _method_of_steps((pulse,), c0, grid, R, big_phi)


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


def derivative_kinks(traj: Trajectory):
    """Measured one-sided derivative jumps of c at the echo arrival nodes.

    Uses third-order one-sided finite differences on the grid; valid for
    constant-coupling single-emitter trajectories.
    """
    return _kinks(traj, traj.c[0], complex)


def population_kinks(traj: Trajectory):
    """One-sided derivative jumps of the excited-state population |c|^2."""
    return _kinks(traj, np.abs(traj.c[0]) ** 2, float)
