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
real problem); around it a block makes a fixed handful of numpy calls.  A
run resumes at the last block it shares with the last run of as many
emitters.  The samples, c and the echo history are its only O(N) arrays;
couplings are held _SPAN steps and Python floats a block at a time.
"""

from __future__ import annotations

import math
import operator
import struct

import numpy as np

from .core import (NORM_SLACK, LinkParams, PulseProfile, TimeGrid, Trajectory,
                   _lagrange_weights, phase_factor, run_inputs)

# cubic Lagrange weights, as floats, for a value midway between stencil
# nodes (S, S+1), (S+1, S+2) and (S+2, S+3)
_W0, _W1, _W2 = [_lagrange_weights(x).tolist() for x in (0.5, 1.5, 2.5)]
_MID_W = np.array(_W1).reshape(4, 1, 1)

_SPAN = 1024  # columns of couplings, and of norm-check terms, made at a time

# per emitter count, the last run's (key, gamma, gh, c, hist); never
# written once stored, and taken out by the run that reads it
_last = {}


def _parts(z, w):
    """Real and imaginary parts of z * w as Python rounds them; numpy may fuse complex products."""
    return z.real * w.real - z.imag * w.imag, z.real * w.imag + z.imag * w.real


def _cmul(z, w):
    """z * w as a complex array of w's shape, rounded as Python rounds it."""
    out = np.empty(w.shape, dtype=complex)
    out.real, out.imag = _parts(z, w)
    return out


def _complex_forcing(coupling, echo):
    """coupling * echo, real and then imaginary parts on the row axis; a pair's coupling is real."""
    if np.isrealobj(coupling):
        F = coupling * echo
        return np.concatenate((F.real, F.imag), axis=1)
    return np.concatenate(_parts(coupling, echo), axis=1)


def _unit(z, x):
    """x, for a phase z of exactly 1.0: 1.0 * x is x for every float, -0 included."""
    return x


def _check_norm(c: np.ndarray, samples, h: float) -> None:
    """Fail a run whose norm left [0, 1]: its couplings are finite, so the grid is too coarse."""
    excess = max((float((np.abs(c[:, i:i + _SPAN]) ** 2).sum(axis=0).max())
                  for i in range(0, c.shape[1], _SPAN)), key=lambda m: (math.isnan(m), m)) - 1.0
    if excess <= NORM_SLACK:
        return
    grew = f"exceeded 1 by {excess:.3e}" if math.isfinite(excess) else "diverged"
    raise RuntimeError(f"single-excitation norm {grew}; grid too coarse "
                       f"(gamma_max*h = {max(map(np.max, samples)) * h:.3g})")


def _rk4_steps(y, a, ah, f, fh, h):
    """Real RK4 steps of dy/dt = a y + f from y; ah and fh at the midpoints."""
    half, sixth = 0.5 * h, h / 6.0
    a_end, f_end = iter(a), iter(f)  # a step's end values, one node on
    next(a_end), next(f_end)
    out = []
    for a0, a_h, a_1, f0, f_h, f1 in zip(a, ah, a_end, f, fh, f_end):
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
    and kept three ways: b (right limits), bh (half nodes) and bm (left
    limits, 0 at t = 0-); b and bm differ only on multiples of R, where the
    turn-on jump replays, so a piece's top node and a block's end read bm
    and every other node reads b.  A lone emitter's phase rides on its
    coupling, (-sqrt(gamma) e^{i Phi}) b.

    Per block, a sliding four-node window of b gives the centred half nodes
    but the last, whose cubic reaches the top node; Python sums that one and
    the two at the ends.  The couplings, stacked for nodes, half nodes and
    left limits, give the forcing in one product, and struct packs each
    stepped row back into c, twice as fast as numpy reads a list.

    If both phases and c0 have +0 imaginary parts (Delta = 0), the arrays
    are real: the complex route's imaginary parts would all stay +0 (a -0
    could flip a zero's sign) and its real parts round as these do.  A real
    run at phase 1 skips its phase products; a complex product goes
    through _parts: a phase's and a lone emitter's coupling, chosen once
    per run; a pair's couplings are real.

    A run with the last run's L, h, R, P, big_phi and c0 (one stored run
    per L) copies c and the history up to K, the last block boundary
    before the first step whose samples changed, and resumes there;
    nothing before K reads anything else.  Only the pulse samples cover
    the whole grid: square roots and couplings start at K, _SPAN columns
    at a time, and coefficient lists at the block.  A run takes the stored
    run out of the store and drops it once its prefix is copied.
    """
    c0, gamma, gh = run_inputs(pulses, c0, grid)
    c0 = tuple(z + 0.0 for z in c0)  # -0 parts read +0, as the real route needs
    L = len(pulses)
    h, N, M = grid.h, grid.n_steps, grid.steps_per_tau
    P = M if L == 2 else R
    cross = R - M  # shift from an emitter's own echo to its partner's
    e_self, e_cross = phase_factor(big_phi), phase_factor(0.5 * big_phi)
    real = not any(z.imag or math.copysign(1.0, z.imag) < 0 for z in (e_self, e_cross, *c0))
    if real:
        e_self, e_cross, c0 = e_self.real, e_cross.real, tuple(z.real for z in c0)
        by_phase = _unit if e_self == e_cross == 1.0 else operator.mul
    else:
        by_phase = _cmul

    key = repr((L, h, R, P, big_phi, c0))  # repr tells -0.0 from 0.0
    stored = _last.pop(L, None)  # out of the store: no run overlaps the run it replaces
    K = 0
    if stored and stored[0] == key:  # the first changed step, down to a block boundary
        n = min(N, stored[2].shape[1])
        node = (gamma[:, :n + 1] != stored[1][:, :n + 1]).any(axis=0)
        changed = node[:-1] | node[1:] | (gh[:, :n] != stored[2][:, :n]).any(axis=0)
        K = (int(changed.argmax()) if changed.any() else n) // P * P

    c = np.zeros((L, N + 1), dtype=float if real else complex)
    hist = np.zeros((3, L, R + N + 1), dtype=c.dtype)  # b, bh, bm
    b, bh, bm = hist
    if K:  # resume at the last block boundary before the first changed step
        c[:, :K + 1] = stored[3][:, :K + 1]
        hist[:, :, :K + R + 1] = stored[4][:, :, :K + R + 1]
    del stored

    # a span at a time: square roots of the node samples, and the couplings (a lone
    # emitter's carries its phase), their negatives at nodes, half nodes and left limits
    span = max(1, _SPAN // P) * P
    roots = np.zeros((4, L, min(span, N - K) + 1))
    lone = _unit if L == 2 or by_phase is _unit else operator.mul
    forcing = operator.mul if real else _complex_forcing
    if not K:
        c[:, 0] = c0
        b[:, R] = np.sqrt(gamma[:, 0]) * c[:, 0]
    # window[q, l, i] = b[l, i + q], the four nodes of half node i + 1 (a view)
    window = np.ndarray((4, L, R + N - 2), b.dtype, hist, 0, (b.strides[1], *b.strides))
    # the RK4 loop steps rows of c: each emitter's, or their real parts and
    # then their imaginary parts
    rows, emitters = (list(c), range(L)) if real else ([*c.real, *c.imag], [*range(L)] * 2)

    for k in range(K, N, P):
        n, j = min(P, N - k), (k - K) % span
        a, ah = (-0.5 * gamma[:, k:k + n + 1]).tolist(), (-0.5 * gh[:, k:k + n]).tolist()
        if not j:  # the next span; its last half node is unused
            m = min(span, N - k)
            root, cpl = roots[3, :, :m + 1], roots[:3, :, :m + 1]
            np.sqrt(gamma[:, k:k + m + 1], out=root)
            np.negative(root, out=cpl[::2])
            np.sqrt(gh[:, k:k + m], out=cpl[1, :, :m])
            np.negative(cpl[1], out=cpl[1])
            coupling = lone(e_self, cpl)
        # the echo piece [k - P, k] has closed: fill its half nodes, centred
        # cubics inside, and at either end the cubic through the end nodes
        p = k - P + R
        m0, m1, m2, m3 = np.multiply(_MID_W, window[..., p:p + P - 3], order="C")
        bh[:, p + 1:p + P - 2] = m0 + m1 + m2 + m3
        low, high = b[:, p:p + 4].tolist(), b[:, p + P - 3:p + P].tolist()
        tops = bm[:, p + P].tolist()
        first, last = [], []
        for (v0, v1, v2, v3), (y0, y1, y2), y3 in zip(low, high, tops):
            first.append(_W0[0] * v0 + _W0[1] * v1 + _W0[2] * v2 + _W0[3] * v3)
            last.append((_W1[0] * y0 + _W1[1] * y1 + _W1[2] * y2 + _W1[3] * y3,
                         _W2[0] * y0 + _W2[1] * y1 + _W2[2] * y2 + _W2[3] * y3))
        bh[:, p] = first
        bh[:, p + P - 2:p + P] = last
        # echo heard from b, bh and bm; a step ends where the next starts,
        # on b, but the block's last ends on a left limit
        E = hist[..., k:k + n + 1]
        if L == 2:
            E = by_phase(e_self, E) + by_phase(e_cross, hist[:, ::-1, k + cross:k + cross + n + 1])
        F = forcing(coupling[..., j:j + n + 1], E)
        F[0, :, n] = F[2, :, n]
        fs, fhs = F[:2].tolist()
        # Real coefficients step the real and imaginary parts apart, as
        # Python's complex a * y does but for signed zeros (0 * y.imag) that
        # matter only to a part at -0, which c0 rules out; a part at +0 with
        # no forcing stays at +0.  fh's last value is unused.
        for row, l, f, fh in zip(rows, emitters, fs, fhs):
            y0 = float(row[k])
            if y0 or any(f) or any(fh[:n]):
                out = _rk4_steps(y0, a[l], ah[l], f, fh, h)
                row[k + 1:k + n + 1] = np.frombuffer(struct.pack(f"{n}d", *out))
        x = root[:, j + 1:j + n + 1] * c[:, k + 1:k + n + 1]
        hist[::2, :, k + 1 + R:k + n + 1 + R] = x + by_phase(e_self, hist[::2, :, k + 1:k + n + 1])

    _check_norm(c[:, K:], (gamma, gh), h)  # a stored run passed it
    c.flags.writeable = False  # shared with the stored run
    _last[L] = (key, gamma, gh, c, hist)
    return Trajectory(grid=grid, c=c, echo_delay_steps=R)


def evolve_pair(link: LinkParams, pulse1: PulseProfile, pulse2: PulseProfile,
                c0, grid: TimeGrid) -> Trajectory:
    """Integrate the two-emitter DDE from initial amplitudes c0 = (c1, c2)."""
    M = grid.steps_per_tau
    if M < 4 or abs(M * grid.h - link.tau) > 1e-12 * link.tau:
        raise ValueError("tau must be a whole number (>= 4) of grid steps")
    return _method_of_steps((pulse1, pulse2), (c0[0], c0[1]), grid, 2 * M, 2.0 * link.phi)


def evolve_single(link: LinkParams, pulse: PulseProfile, c0: complex,
                  grid: TimeGrid, round_trip=None) -> Trajectory:
    """Integrate the single-emitter DDE.

    round_trip = (T_rt, Phi) selects the echo convention: the two-ended
    geometry uses (2*tau, 2*phi) (the default); the series-solution
    convention uses (tau, phi).  T_rt must be a whole number of grid steps.
    """
    if round_trip is None:
        t_rt, big_phi = 2.0 * link.tau, 2.0 * link.phi
    else:
        t_rt, big_phi = round_trip
    h = grid.h
    R = int(round(t_rt / h))
    if R < 4 or abs(R * h - t_rt) > 1e-9 * t_rt:
        raise ValueError("round-trip time must be a whole number (>= 4) of grid steps")
    return _method_of_steps((pulse,), (c0,), grid, R, big_phi)


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
