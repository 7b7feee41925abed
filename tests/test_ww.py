import importlib.util
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from shortlink.core import constant_pulse, eval_pulse, make_grid, make_link, sin2_pulse
from shortlink import ww
from shortlink.dde import evolve_pair, evolve_single
from shortlink.ww import _BLOCK, build_modes, evolve_ww, steps_for_modes, unitarity_defect


class TestBuildModes:
    def test_centered_ladder(self):
        link = make_link(0.1, 1.0, 50 * math.pi)
        m = build_modes(link, 11)
        assert m.n_modes == 11
        indices = np.arange(45, 56)  # centered on the resonant mode 50
        np.testing.assert_allclose(m.omegas / link.fsr, indices)
        np.testing.assert_array_equal(m.parity, (-1.0) ** indices)

    def test_clamped_at_first_mode(self):
        # a wide ladder at low detuning starts at the first physical mode
        link = make_link(0.1, 1.0, 5 * math.pi)
        m = build_modes(link, 401)
        assert m.omegas[0] / link.fsr == 1.0
        assert m.n_modes == 401

    def test_odd_validation(self):
        link = make_link(0.1, 1.0, 10.0)
        with pytest.raises(ValueError):
            build_modes(link, 10)
        with pytest.raises(ValueError):
            build_modes(link, -3)


def test_steps_for_modes_at_cli_defaults():
    # Delta = 50 FSR with 401 modes from the first one: max|omega_k - Delta| = 351 pi
    link = make_link(0.1, 1.0, 50 * math.pi)
    modes = build_modes(link, 401)
    assert steps_for_modes(link, modes, 200) == 2400
    p = constant_pulse(0.1, (0.0, 1.0))
    evolve_ww(link, modes, (p, p), (1.0, 0.0), make_grid(1.0, 0.01, 2400))
    with pytest.raises(ValueError, match="too coarse"):
        evolve_ww(link, modes, (p, p), (1.0, 0.0), make_grid(1.0, 0.01, 2200))


def _run_pair(gamma, delta, n_modes, t_end, steps):
    link = make_link(gamma, 1.0, delta)
    grid = make_grid(1.0, t_end, steps)
    pulse = constant_pulse(gamma, (0.0, grid.t_end))
    modes = build_modes(link, n_modes)
    return evolve_ww(link, modes, (pulse, pulse), (1.0, 0.0), grid), grid


class TestEvolveWW:
    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            _run_pair(0.1, 50 * math.pi, 401, 2.0, steps=100)

    def test_unitarity(self):
        traj, _ = _run_pair(0.1, 50 * math.pi, 41, 8.0, steps=400)
        assert unitarity_defect(traj) < 1e-6
        assert traj.photon_number() is traj.photon  # the mode record, not 1 - sum |c|^2

    def test_matches_dde_two_emitters(self):
        traj, grid = _run_pair(0.2, 50 * math.pi, 81, 6.0, steps=800)
        link = make_link(0.2, 1.0, 50 * math.pi)
        pulse = constant_pulse(0.2, (0.0, grid.t_end))
        dde = evolve_pair(link, pulse, pulse, (1.0, 0.0), grid)
        dev = np.max(np.abs(traj.populations() - dde.populations()))
        assert dev < 2e-2
        ph = np.max(np.abs(traj.photon - dde.photon_number()))
        assert ph < 2e-2

    def test_matches_dde_single_emitter(self):
        link = make_link(0.3, 1.0, 50 * math.pi)
        grid = make_grid(1.0, 5.0, 800)
        on = constant_pulse(0.3, (0.0, 5.0))
        off = constant_pulse(0.0, (0.0, 5.0))
        modes = build_modes(link, 81)
        ww = evolve_ww(link, modes, (on, off), (1.0, 0.0), grid)
        dde = evolve_single(link, on, 1.0, grid)
        assert np.max(np.abs(ww.populations()[0] - dde.populations()[0])) < 2e-2

    def test_initial_norm_validation(self):
        link = make_link(0.1, 1.0, 50 * math.pi)
        grid = make_grid(1.0, 1.0, 400)
        p = constant_pulse(0.1, (0.0, 1.0))
        with pytest.raises(ValueError, match="single-excitation"):
            evolve_ww(link, build_modes(link, 5), (p, p), (1.0, 0.9), grid)
        for c0 in ((math.nan, 0.0), (0.5, complex(0.0, math.inf))):
            with pytest.raises(ValueError, match="finite"):
                evolve_ww(link, build_modes(link, 5), (p, p), c0, grid)

    def test_pulse_count_validation(self):
        link = make_link(0.1, 1.0, 50 * math.pi)
        grid = make_grid(1.0, 1.0, 400)
        p = constant_pulse(0.1, (0.0, 1.0))
        for pulses in ((p,), (p, p, p)):
            with pytest.raises(ValueError, match="exactly two pulses"):
                evolve_ww(link, build_modes(link, 5), pulses, (1.0, 0.0), grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coupling_rejected(self, bad, sampled):
        link = make_link(0.1, 1.0, 50 * math.pi)
        grid = make_grid(1.0, 1.0, 400)
        p = constant_pulse(0.1, (0.0, 1.0))
        with pytest.raises(ValueError, match=f"^gamma0 must be finite, got {bad}$"):
            constant_pulse(bad, (0.0, 1.0))  # an analytic pulse fails on construction
        q = sampled([0.0, 1.0], [0.1, bad])
        for pulses in ((p, q), (q, p)):
            with pytest.raises(ValueError, match="non-finite amplitude; check the couplings"):
                evolve_ww(link, build_modes(link, 5), pulses, (1.0, 0.0), grid)


def _reference_ww(link, modes, pulses, c0, grid):
    """The step loop as first written (numpy scalars, np.sum, one mode
    forcing per mode): the reference route evolve_ww must match bit for bit."""
    i_nu = -1j * (modes.omegas - link.delta)
    h = grid.h
    N = grid.n_steps
    t_nodes = grid.times()
    gamma = np.array([eval_pulse(p, t_nodes) for p in pulses], dtype=float)
    scale = 1.0 / math.sqrt(2.0 * link.tau)
    g_n = (scale * np.sqrt(gamma)).T
    g_h = (scale * np.sqrt([eval_pulse(p, t_nodes[:-1] + 0.5 * h) for p in pulses])).T
    s = modes.parity

    c = np.empty((2, N + 1), dtype=complex)
    photon = np.empty(N + 1)
    c[:, 0] = complex(c0[0]), complex(c0[1])
    alpha = np.zeros(modes.n_modes, dtype=complex)
    photon[0] = float(np.sum(np.abs(alpha) ** 2))

    def phases(t):
        ph = np.exp(i_nu * t)
        return ph, -1j * np.conj(ph)

    def rhs(ph, back, a, x1, x2, g1, g2):
        pa = ph * a
        dc1 = -1j * g1 * np.sum(pa)
        dc2 = -1j * g2 * np.sum(s * pa)
        da = back * (g1 * x1 + g2 * x2 * s)
        return dc1, dc2, da

    for i in range(N):
        t0 = t_nodes[i]
        ph0 = ph1 if i and t0 == t_nodes[i - 1] + h else phases(t0)
        phh = phases(t0 + 0.5 * h)
        ph1 = phases(t0 + h)
        ga, gh, gb = g_n[i].tolist(), g_h[i].tolist(), g_n[i + 1].tolist()

        x1, x2, a = c[0, i], c[1, i], alpha
        k1 = rhs(*ph0, a, x1, x2, *ga)
        k2 = rhs(*phh, a + 0.5 * h * k1[2], x1 + 0.5 * h * k1[0], x2 + 0.5 * h * k1[1], *gh)
        k3 = rhs(*phh, a + 0.5 * h * k2[2], x1 + 0.5 * h * k2[0], x2 + 0.5 * h * k2[1], *gh)
        k4 = rhs(*ph1, a + h * k3[2], x1 + h * k3[0], x2 + h * k3[1], *gb)
        c[0, i + 1] = x1 + (h / 6.0) * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        c[1, i + 1] = x2 + (h / 6.0) * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        alpha = a + (h / 6.0) * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        photon[i + 1] = float(np.sum(np.abs(alpha) ** 2))
    return c, photon


def _stirap(g, T):
    return sin2_pulse(g, T), sin2_pulse(g, T, mirror=True)


def _single(g, T):
    return constant_pulse(g, (0.0, T)), constant_pulse(0.0, (0.0, T))


def _off_end_block_start(steps):
    """A step count at `steps` per tau whose last block opens with a step that
    starts off the previous step's end t + h (its start phases are made
    anew), after a block whose first step starts on it (carried over)."""
    t, h = make_grid(1.0, 10.0, steps).times(), 1.0 / steps
    on_end = [bool(t[i] == t[i - 1] + h) for i in range(_BLOCK, t.size - 1, _BLOCK)]
    k = next(k for k in range(1, len(on_end)) if on_end[k - 1] and not on_end[k])
    return (k + 1) * _BLOCK + 2


# ramps that start at gamma = 0, a complex and a signed-zero start, off-resonant
# Delta, a ladder clamped at the first mode, and one emitter; then runs of
# fewer, as many and one more steps than a block, of several blocks, a 1-mode
# ladder, a block whose first step's start phases are made anew, and the CLI's
# 401-mode ladder over 38 blocks, ending mid-block, and the CLI's own oracle
# set-up (simulate --ww --emitters 2 at its defaults) over 3 blocks and 5 steps
@pytest.mark.parametrize("pulses, c0, delta_fsr, n_modes, steps, n_steps", [
    pytest.param(_stirap(0.5, 3.0), (1.0, 0.0), 50.0, 41, 160, 480,
                 id="pulses0-c00-50.0-41-160"),
    pytest.param(_stirap(0.5, 3.0), (0.6, 0.8j), 50.0, 41, 160, 480,
                 id="pulses1-c01-50.0-41-160"),
    pytest.param(_stirap(1.0, 2.5), (-0.0, complex(-0.0, -0.0)), 50.3, 61, 200, 600,
                 id="pulses2-c02-50.3-61-200"),
    pytest.param(_stirap(0.3, 2.5), (0.3 - 0.4j, -0.5 + 0.1j), 20.0, 41, 200, 600,
                 id="pulses3-c03-20.0-41-200"),
    pytest.param(_single(0.3, 3.0), (1.0, 0.0), 50.3, 41, 160, 480,
                 id="pulses4-c04-50.3-41-160"),
    *[pytest.param(_single(0.5, 3.0), (0.6, 0.8j), 50.0, 41, 160, n, id=f"{n}-steps")
      for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 5 * _BLOCK + 3)],
    pytest.param(_stirap(0.5, 3.0), (0.6, 0.8j), 50.0, 1, 160, 480, id="1-mode"),
    pytest.param(_single(0.5, 3.0), (0.3 - 0.4j, -0.5 + 0.1j), 50.3, 41, 200,
                 _off_end_block_start(200), id="block-start-off-the-last-end"),
    pytest.param(_stirap(0.5, 3.0), (0.6, 0.8j), 50.0, 401, 2400, 600, id="401-modes"),
    pytest.param((constant_pulse(0.1, (0.0, 12.0)),) * 2, (1.0, 0.0), 50.0, 401, 2400,
                 3 * _BLOCK + 5, id="cli-oracle"),
])
def test_matches_reference_route_bit_for_bit(pulses, c0, delta_fsr, n_modes, steps, n_steps):
    link = make_link(0.5, 1.0, delta_fsr * math.pi)
    modes = build_modes(link, n_modes)
    grid = make_grid(1.0, n_steps / steps, steps)
    assert grid.n_steps == n_steps
    traj = evolve_ww(link, modes, pulses, c0, grid)
    c, photon = _reference_ww(link, modes, pulses, c0, grid)
    assert np.array_equal(traj.c.view(np.uint64), c.view(np.uint64))
    assert np.array_equal(traj.photon.view(np.uint64), photon.view(np.uint64))


@pytest.mark.parametrize("h", [1 / 2400, 1 / 160])
def test_step_scalars_as_0d_complex_arrays_multiply_bit_for_bit(h):
    """evolve_ww multiplies its mode rows by 0-d complex arrays of the step's
    scalars; a Python float gives the same bits, over finite parts: random,
    +-0, subnormal and near overflow."""
    rng = np.random.default_rng(7)
    pool = np.concatenate([rng.standard_normal(400) * 10.0 ** rng.integers(-300, 300, 400),
                           rng.standard_normal(100), [0.0, -0.0],
                           [5e-324, -5e-324, 2.5e-310, -1.1e-308, 1.7e308, -1.7e308, 9e307]])
    assert np.all(np.isfinite(pool))
    for v in (0.5 * h, h, 2.0, h / 6.0):
        c = np.array(v, dtype=complex)
        for _ in range(16):
            z, out = np.empty((2, 401), dtype=complex)
            z.real, z.imag = rng.choice(pool, (2, 401))
            with np.errstate(over="ignore"):  # 2.0 * 1.7e308 is inf either way
                assert np.array_equal(np.multiply(c, z, out).view(np.uint64),
                                      np.multiply(v, z).view(np.uint64))


def _stride_run(n_steps, every):
    link = make_link(0.5, 1.0, 50.0 * math.pi)
    grid = make_grid(1.0, n_steps / 160, 160)
    assert grid.n_steps == n_steps
    return evolve_ww(link, build_modes(link, 41), _stirap(0.5, 3.0), (0.6, 0.8j), grid, every)


# 83 steps: a multiple of none of the strides above 1; a stride above _BLOCK
# (23) leaves some blocks with no kept node; 10 steps: fewer than the stride
@pytest.mark.parametrize("n_steps", [5 * _BLOCK + 3, 10])
@pytest.mark.parametrize("every", [1, 3, 12, 16, 23])
def test_stride_keeps_the_full_runs_nodes_bit_for_bit(n_steps, every):
    full, kept = _stride_run(n_steps, 1), _stride_run(n_steps, every)
    assert kept.every == every and kept.grid == full.grid
    assert kept.c.shape == (2, n_steps // every + 1) and kept.photon.shape == (n_steps // every + 1,)
    def bits(x):
        return np.ascontiguousarray(x).view(np.uint64)
    assert np.array_equal(bits(kept.c), bits(full.c[:, ::every]))
    assert np.array_equal(bits(kept.photon), bits(full.photon[::every]))
    assert np.array_equal(bits(kept.t), bits(full.grid.times()[::every]))
    assert np.array_equal(kept.populations(), full.populations()[:, ::every])
    total = np.sum(np.abs(full.c[:, ::every]) ** 2, axis=0) + full.photon[::every]
    assert unitarity_defect(kept) == float(np.max(np.abs(total - 1.0)))
    T = kept.t[-1]
    if every == 1:
        assert kept.amplitude_at(1, T) == full.c[1, -1]
    else:
        with pytest.raises(ValueError, match=f"^amplitude_at needs every node; .* every {every}th$"):
            kept.amplitude_at(1, T)


@pytest.mark.parametrize("every", [0, -3, 1.0, 2.5, "2", None, np.int64(2), True, False])
def test_bad_stride_fails_before_the_first_step(monkeypatch, every):
    calls = []
    monkeypatch.setattr(ww, "np", _Numpy(exp=_counted(np.exp, calls)))
    before = threading.active_count()
    with pytest.raises(ValueError, match="^every must be an int >= 1, got "):
        _stride_run(10, every)
    assert calls == [] and threading.active_count() == before  # no phase row, no worker


def test_memory_split_oracle_pass(tmp_path, monkeypatch):
    # tools/memory_split.py wraps cli.evolve_ww from outside: ru_maxrss around
    # the first pass's call, traced bytes around the second's
    from shortlink import cli
    path = Path(__file__).resolve().parents[1] / "tools" / "memory_split.py"
    spec = importlib.util.spec_from_file_location("memory_split", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SHORTLINK_OUTDIR", str(tmp_path))
    argv = ["simulate", "--gamma-tau", "0.1", "--ww", "--t-end", "0.5"]  # 1 200 oracle steps

    class Workload:
        setup_argv = argv + ["--out", "setup.csv"]

        def run_pass(self):
            cli.main(argv + ["--out", "pass.csv"])

    wrapped = cli.evolve_ww
    got = tool.oracle_pass(cli, Workload())
    assert 0 < got["before"] <= got["after"]
    # held: the returned c and photon (40 bytes a node) at the 101 printed nodes of 1 201
    assert 101 * 40 <= got["held"] < 1201 * 40 and got["held"] <= got["peak"]
    assert cli.evolve_ww is wrapped


def test_runs_share_no_memory():
    # each run's c and photon are its own arrays, not views of a block buffer
    a, b = (_run_pair(0.5, 50 * math.pi, 41, 1.0, steps=160)[0] for _ in range(2))
    kept = a.c.copy(), a.photon.copy()
    for x in (a.c, a.photon, b.c, b.photon):
        assert x.base is None
    assert not any(np.shares_memory(x, y) for x in (a.c, a.photon) for y in (b.c, b.photon))
    for x, y in zip(kept, (a.c, a.photon)):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    assert np.array_equal(b.c.view(np.uint64), a.c.view(np.uint64))


class _Numpy:
    """numpy as `ww` sees it, with the given functions replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(np, name)


def _counted(fn, calls, fail_at=None, exc=None):
    """fn, recording each call's thread in `calls`; call number `fail_at` raises exc."""
    def wrapped(*args, **kwargs):
        calls.append(threading.current_thread())
        if len(calls) == fail_at:
            raise exc
        return fn(*args, **kwargs)
    return wrapped


def _outcome(fn):
    """(fn()'s result or exception, threading.active_count() just before the
    call less just after it), from a daemon thread given a timeout, so a hang
    fails the test instead of blocking it."""
    out = []

    def run():
        before = threading.active_count()
        try:
            got = fn()
        except BaseException as exc:  # handed to the test
            got = exc
        out.append((got, threading.active_count() - before))
    th = threading.Thread(target=run, daemon=True)
    th.start()
    th.join(timeout=60)
    assert not th.is_alive(), "evolve_ww did not return"
    return out[0]


class TestExpWorker:
    """Each evolve_ww call makes its phase exponentials on one worker thread,
    joined before the call returns or raises."""

    def test_every_exp_call_runs_on_the_worker(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ww, "np", _Numpy(exp=_counted(np.exp, calls)))
        (_, grid), threads_left = _outcome(
            lambda: _run_pair(0.5, 50 * math.pi, 41, 1.0, steps=160))
        assert threads_left == 0
        assert grid.n_steps == 10 * _BLOCK and len(calls) == 10  # one per block
        assert len(set(calls)) == 1 and calls[0] is not threading.current_thread()

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        calls, boom = [], ArithmeticError("exp failed")
        monkeypatch.setattr(ww, "np", _Numpy(exp=_counted(np.exp, calls, 3, boom)))
        got, threads_left = _outcome(lambda: _run_pair(0.5, 50 * math.pi, 41, 1.0, steps=160))
        assert got is boom and len(calls) == 3
        assert threads_left == 0

    @pytest.mark.parametrize("exc", [ValueError("mid-run"), KeyboardInterrupt()],
                             ids=["ValueError", "KeyboardInterrupt"])
    def test_caller_exception_stops_the_worker(self, monkeypatch, exc):
        # np.abs runs on the calling thread: once for the grid rule, once for
        # the initial photon number and once per block, so call 4 fails at
        # the second block's end, with the third block's exponentials posted
        calls = []
        monkeypatch.setattr(ww, "np", _Numpy(abs=_counted(np.abs, calls, 4, exc)))
        got, threads_left = _outcome(lambda: _run_pair(0.5, 50 * math.pi, 41, 1.0, steps=160))
        assert got is exc and len(calls) == 4
        assert len(set(calls)) == 1
        assert threads_left == 0

    def test_concurrent_calls_keep_their_own_rows(self):
        # more callers than cores, each with its worker, switching often:
        # every result must equal the run made alone
        args = [(0.5, 50 * math.pi, 41, 3.0, 160), (0.3, 50.3 * math.pi, 61, 2.0, 200)]
        expected = [_run_pair(*a[:4], steps=a[4])[0] for a in args]
        wrong = []

        def caller(k):
            try:
                for i in [k % 2, (k + 1) % 2] * 3:
                    got = _run_pair(*args[i][:4], steps=args[i][4])[0]
                    for x, y in ((got.c, expected[i].c), (got.photon, expected[i].photon)):
                        if not np.array_equal(x.view(np.uint64), y.view(np.uint64)):
                            wrong.append(i)
            except Exception as exc:
                wrong.append(exc)

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(3)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []
        assert threading.active_count() == before

    def test_two_calls_at_once_match_their_single_runs(self):
        # two calls started together on two threads, with different ladders,
        # pulses and block counts: each call's step buffers are its own, so
        # each result equals its run made alone, bit for bit
        runs = [(0.5, 50.0, 41, 160, 7 * _BLOCK + 5, _stirap(0.5, 3.0), (0.6, 0.8j)),
                (0.3, 50.3, 61, 200, 3 * _BLOCK, _single(0.3, 3.0), (0.3 - 0.4j, -0.5 + 0.1j))]

        def call(gamma, delta_fsr, n_modes, steps, n_steps, pulses, c0):
            link = make_link(gamma, 1.0, delta_fsr * math.pi)
            grid = make_grid(1.0, n_steps / steps, steps)
            assert grid.n_steps == n_steps
            return evolve_ww(link, build_modes(link, n_modes), pulses, c0, grid)

        alone = [call(*run) for run in runs]
        start, got = threading.Barrier(len(runs)), [None] * len(runs)

        def caller(k):
            try:
                start.wait()
                got[k] = call(*runs[k])
            except Exception as exc:  # handed to the test
                got[k] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,), daemon=True)
                       for k in range(len(runs))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads), "evolve_ww did not return"
        for traj, want in zip(got, alone):
            assert isinstance(traj, ww.WWTrajectory), traj
            assert np.array_equal(traj.c.view(np.uint64), want.c.view(np.uint64))
            assert np.array_equal(traj.photon.view(np.uint64), want.photon.view(np.uint64))
