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
real problem); a run resumes at the last block it shares with the last run.
"""

from __future__ import annotations

import math

import numpy as np

from .core import LinkParams, PulseProfile, TimeGrid, Trajectory, eval_pulse, phase_factor

# cubic Lagrange weights for a value midway between stencil nodes
# rows: delayed point between nodes (S, S+1), (S+1, S+2), (S+2, S+3)
_HALF_W = np.array((
    (0.3125, 0.9375, -0.3125, 0.0625),
    (-0.0625, 0.5625, 0.5625, -0.0625),
    (0.0625, -0.3125, 0.9375, 0.3125),
))

_NORM_SLACK = 1e-9

# the last run's key, samples per step, c and history; never written once stored
_last = (None,) * 4


def _stencil(w, nodes):
    """Cubic interpolation w[0] x0 + w[1] x1 + w[2] x2 + w[3] x3, summed left to right."""
    return w[0] * nodes[0] + w[1] * nodes[1] + w[2] * nodes[2] + w[3] * nodes[3]


def _cmul(z, w):
    """z * w rounded as Python rounds it; numpy may fuse complex multiply-adds."""
    if w.dtype == float or isinstance(z, np.ndarray) and z.dtype == float:
        return z * w  # a real factor rounds the same either way
    out = np.empty(np.broadcast(z, w).shape, dtype=complex)
    out.real = z.real * w.real - z.imag * w.imag
    out.imag = z.real * w.imag + z.imag * w.real
    return out


def _check_norm(c: np.ndarray) -> None:
    excess = float(np.max(np.sum(np.abs(c) ** 2, axis=0))) - 1.0
    if not math.isfinite(excess):
        raise RuntimeError("non-finite amplitude; check the couplings for NaN or inf")
    if excess > _NORM_SLACK:
        raise RuntimeError(f"single-excitation norm exceeded 1 by {excess:.3e}; grid too coarse")


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


def _method_of_steps(link: LinkParams, pulses, c0, grid: TimeGrid, R: int,
                     big_phi: float) -> Trajectory:
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
    could flip a zero's sign) and its real parts round as these do.  A run
    with the last run's L, h, R, P, big_phi and c0 copies c and the history
    up to K, the last block boundary before the first step whose samples
    changed, and resumes there; nothing before K reads anything else.
    """
    global _last
    L = len(pulses)
    h, N, M = grid.h, grid.n_steps, grid.steps_per_tau
    P = M if L == 2 else R
    cross = R - M  # shift from an emitter's own echo to its partner's
    e_self, e_cross = phase_factor(big_phi), phase_factor(0.5 * big_phi)
    real = not any(z.imag or math.copysign(1.0, z.imag) < 0 for z in (e_self, e_cross, *c0))
    if real:
        e_self, e_cross, c0 = e_self.real, e_cross.real, tuple(z.real for z in c0)
    parts = (lambda x: (x,)) if real else (lambda x: (x.real, x.imag))

    t = grid.times()
    gamma = np.array([eval_pulse(p, t) for p in pulses], dtype=float)
    gh = np.array([eval_pulse(p, t[:-1] + 0.5 * h) for p in pulses], dtype=float)
    sg = np.sqrt(gamma)
    lone = 1.0 if L == 2 else e_self
    coupling, coupling_h = -sg * lone, -np.sqrt(gh) * lone
    a, ah = (-0.5 * gamma).tolist(), (-0.5 * gh).tolist()

    c = np.zeros((L, N + 1), dtype=float if real else complex)
    hist = np.zeros((3, L, R + N + 1), dtype=c.dtype)  # b, bh, bm
    b, bh, bm = hist
    key = repr((L, h, R, P, big_phi, c0))  # repr tells -0.0 from 0.0
    samples = np.concatenate((gamma[:, :-1], gh, gamma[:, 1:]))  # a column per step
    last_key, last_samples, c_last, hist_last = _last
    K = 0
    if key == last_key:
        changed = (samples[:, :last_samples.shape[1]] != last_samples[:, :N]).any(axis=0)
        K = np.append(changed, True).argmax() // P * P
    c[:, 0] = c0
    b[:, R] = sg[:, 0] * c[:, 0]
    if K:  # resume at the last block boundary before the first changed step
        c[:, :K + 1] = c_last[:, :K + 1]
        hist[:, :, :K + R + 1] = hist_last[:, :, :K + R + 1]

    for k in range(K, N, P):
        n = min(P, N - k)
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
            E = _cmul(e_self, E) + _cmul(e_cross, hist[:, ::-1, k + cross:k + cross + n + 1])
        F = _cmul(coupling[:, k:k + n + 1], E[0])
        F[:, n] = _cmul(coupling[:, k + n], E[2, :, n])
        Fh = _cmul(coupling_h[:, k:k + n], E[1, :, :n])
        for l in range(L):
            # Real coefficients step the real and imaginary parts apart, as
            # Python's complex a * y does but for signed zeros (0 * y.imag)
            # that matter only to a part at -0, which c0 rules out; a part
            # at +0 with no forcing stays at +0.
            y = complex(c[l, k])
            for part, y0, f, fh in zip(parts(c[l, k + 1:k + n + 1]), (y.real, y.imag),
                                       parts(F[l]), parts(Fh[l])):
                if y0 or f.any() or fh.any():
                    part[:] = _rk4_steps(y0, a[l][k:k + n + 1], ah[l][k:k + n],
                                         f.tolist(), fh.tolist(), h)
        x = sg[:, k + 1:k + n + 1] * c[:, k + 1:k + n + 1]
        hist[::2, :, k + 1 + R:k + n + 1 + R] = x + _cmul(e_self, hist[::2, :, k + 1:k + n + 1])

    _check_norm(c)
    _last = (key, samples, c, hist)
    return Trajectory(grid=grid, link=link, c=c.astype(complex), gamma_samples=gamma,
                      b_out=b[:, R:].astype(complex), echo_delay_steps=R, echo_phase=big_phi)


def evolve_pair(link: LinkParams, pulse1: PulseProfile, pulse2: PulseProfile,
                c0, grid: TimeGrid) -> Trajectory:
    """Integrate the two-emitter DDE from initial amplitudes c0 = (c1, c2)."""
    c0 = _check_initial((c0[0], c0[1]))
    M = grid.steps_per_tau
    if M < 4 or abs(M * grid.h - link.tau) > 1e-12 * link.tau:
        raise ValueError("tau must be a whole number (>= 4) of grid steps")
    return _method_of_steps(link, (pulse1, pulse2), c0, grid, 2 * M, 2.0 * link.phi)


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
    return _method_of_steps(link, (pulse,), c0, grid, R, big_phi)


def output_field(traj: Trajectory, l: int, t: float) -> complex:
    """Echo field b_l^out(t) at a grid point, from the stored recursion."""
    if t < 0:
        return 0j
    i = traj.grid.index_of(t)
    return complex(traj.b_out[l, i])


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
