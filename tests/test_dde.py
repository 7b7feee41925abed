import importlib.util
import math
import re
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from shortlink import dde
from shortlink.analytic import SeriesParams, series_solution
from shortlink.core import (NON_FINITE, TimeGrid, constant_pulse, eval_pulse, make_grid,
                            make_link, phase_factor, sin2_pulse, tanh_pulse)
from shortlink.dde import evolve_pair, evolve_single
from shortlink.ww import build_modes, evolve_ww


def single_run(gamma, phi, t_end=5.0, steps=200):
    """Single-emitter run in the one-delay convention used by the series."""
    link = make_link(gamma, 1.0, phi)
    grid = make_grid(1.0, t_end, steps)
    pulse = constant_pulse(gamma, (0.0, grid.t_end))
    return evolve_single(link, pulse, 1.0, grid, round_trip=(1.0, phi)), grid


def stepwise(pulses, c0, grid, R, big_phi):
    """The method-of-steps RK4 one step and one emitter at a time.

    Reference for the block-vectorized kernel, with the same arithmetic in
    the same order, so the two must agree bit for bit.  Emitter l hears its
    own history R steps back with e^{i big_phi} and, in a pair, its
    partner's M = steps_per_tau steps back with e^{i big_phi/2}; a lone
    emitter's phase rides on its coupling.  A history is smooth between
    multiples of P, the shortest delay; a step reads right limits at its
    start and left limits at its end, and a half-node value comes from the
    cubic through four nodes of its own piece.
    """
    L, h, N, M = len(pulses), grid.h, grid.n_steps, grid.steps_per_tau
    P = M if L == 2 else R
    t = grid.times()
    g = [eval_pulse(p, t).tolist() for p in pulses]
    gh = [eval_pulse(p, t[:-1] + 0.5 * h).tolist() for p in pulses]
    phase = (phase_factor(big_phi), phase_factor(0.5 * big_phi))
    lone = 1.0 if L == 2 else phase[0]
    c = [[complex(z)] + [0j] * N for z in c0]
    b = [[math.sqrt(g[l][0]) * c[l][0]] + [0j] * N for l in range(L)]  # right limits
    bm = [[0j] * (N + 1) for _ in range(L)]  # left limits; nothing before t = 0

    def right(l, j):
        return b[l][j] if j >= 0 else 0j

    def left(l, j):
        return bm[l][j] if j >= 0 else 0j

    def half(l, j):  # between nodes j and j + 1
        if j < 0:
            return 0j
        lo = j - j % P
        s = lo if j == lo else min(j - 1, lo + P - 3)
        x = j - s + 0.5
        w = [math.prod((x - m) / (q - m) for m in range(4) if m != q) for q in range(4)]
        v = [w[q] * (left if s + q == lo + P else right)(l, s + q) for q in range(4)]
        return v[0] + v[1] + v[2] + v[3]

    def echo(l, look, j):
        e = look(l, j - R)
        return phase[0] * e + phase[1] * look(1 - l, j - M) if L == 2 else e

    for i in range(N):
        for l in range(L):
            y = c[l][i]
            A0, Ah, A1 = (-math.sqrt(x) * lone for x in (g[l][i], gh[l][i], g[l][i + 1]))
            F0, Fh, F1 = A0 * echo(l, right, i), Ah * echo(l, half, i), A1 * echo(l, left, i + 1)
            a0, ah, a1 = -0.5 * g[l][i], -0.5 * gh[l][i], -0.5 * g[l][i + 1]
            k1 = a0 * y + F0
            k2 = ah * (y + 0.5 * h * k1) + Fh
            k3 = ah * (y + 0.5 * h * k2) + Fh
            k4 = a1 * (y + h * k3) + F1
            c[l][i + 1] = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        for l in range(L):
            x = math.sqrt(g[l][i + 1]) * c[l][i + 1]
            b[l][i + 1] = x + phase[0] * right(l, i + 1 - R)
            bm[l][i + 1] = x + phase[0] * left(l, i + 1 - R)
    return np.array(c), np.array(b)


def assert_same_bits(x, y):
    """Equal bit for bit, signed zeros included; a real array reads as complex with +0 imaginary parts."""
    if x.dtype != y.dtype:
        x, y = x.astype(complex), y.astype(complex)
    np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))


def echo(traj):
    """The echo field b[l, i] of the run just made: its stored history's right limits from t = 0."""
    return dde._last[traj.c.shape[0]][4][0][:, traj.echo_delay_steps:]


def samples(traj):
    """The node samples gamma[l, i] of the run just made: its stored run's."""
    return dde._last[traj.c.shape[0]][1]


def ran(run):
    """run()'s Trajectory and echo field."""
    traj = run()
    return traj, echo(traj)


class TestBlockKernel:
    def test_matches_stepwise_reference(self):
        # shaped pulses, delays of 20 and 50 steps, runs ending mid-block;
        # complex and real dynamics, and a -0 initial part, which reads +0
        grid = make_grid(0.7, 3.33, 50)
        p1, p2 = tanh_pulse(0.8, 1.2, (0.0, 3.33)), sin2_pulse(0.8, 3.33, mirror=True)
        for phi, c0 in [(1.1, (0.6, 0.8j)), (1.1, (1.0, 0.0)), (0.0, (1.0, 0.0)),
                        (0.0, (0.6, -0.8j))]:
            link = make_link(0.8, 0.7, phi / 0.7)
            pair = evolve_pair(link, p1, p2, c0, grid)
            c, b = stepwise((p1, p2), [complex(z) + 0.0 for z in c0], grid, 100, 2.0 * link.phi)
            assert_same_bits(pair.c, c)
            assert_same_bits(echo(pair), b)
        grid = make_grid(1.0, 4.1, 20)
        for round_trip in [(1.0, 2.3), (2.0, 0.0)]:
            single = evolve_single(make_link(0.8, 1.0, 0.0), p1, 0.6 + 0.8j, grid,
                                   round_trip=round_trip)
            c, b = stepwise((p1,), (0.6 + 0.8j,), grid, int(20 * round_trip[0]), round_trip[1])
            assert_same_bits(single.c, c)
            assert_same_bits(echo(single), b)

    @pytest.mark.parametrize("steps", [4, 5])
    def test_smallest_blocks_match_stepwise_reference(self, steps):
        # P = 4 or 5 steps, where the end half nodes meet the centred ones;
        # runs shorter than one block, of a whole number of blocks and ending
        # mid-block; real and complex, at zero and nonzero phase
        for T in (0.5, 3.0, 2.6):
            grid = make_grid(1.0, T, steps)
            p1, p2 = tanh_pulse(0.8, 1.2, (0.0, T)), sin2_pulse(0.8, T, mirror=True)
            for phi, c0 in SMALL_BLOCK_STARTS:
                dde._last.clear()
                pair = evolve_pair(make_link(0.8, 1.0, phi), p1, p2, c0, grid)
                c, b = stepwise((p1, p2), [complex(z) for z in c0], grid, 2 * steps, 2.0 * phi)
                assert_same_bits(pair.c, c)
                assert_same_bits(echo(pair), b)
                dde._last.clear()
                single = evolve_single(make_link(0.8, 1.0, 0.0), p1, c0[0], grid,
                                       round_trip=(1.0, 2.0 * phi))
                c, b = stepwise((p1,), (complex(c0[0]),), grid, steps, 2.0 * phi)
                assert_same_bits(single.c, c)
                assert_same_bits(echo(single), b)


# (phi, c0): real route at phase 1, complex routes at phase 1 and not
SMALL_BLOCK_STARTS = [(0.0, (1.0, 0.0)), (1.1, (0.6, 0.8)), (0.0, (0.6j, 0.8)),
                      (1.1, (0.6, 0.8j))]


@pytest.fixture
def rk4_steps(monkeypatch):
    """Steps the kernel takes, one per real or imaginary part stepped."""
    count = [0]
    step = dde._rk4_steps

    def counted(y, a, *rest):
        count[0] += len(a) - 1
        return step(y, a, *rest)

    monkeypatch.setattr(dde, "_rk4_steps", counted)
    return count


def cold(run):
    """run() with no earlier run to resume from."""
    dde._last.clear()
    return run()


class TestResume:
    def test_warm_runs_equal_cold_runs(self, rk4_steps):
        # SWAP durations ascending, then interleaved and repeated; shaped
        # pulses; pairs and lone emitters; real and complex problems
        def run(g, T, phi=0.0, c0=(1.0, 0.0), shape="constant", lone=False, steps=50):
            link = make_link(g, 1.0, phi)
            grid = make_grid(1.0, T, steps)
            p = {"constant": constant_pulse(g, (0.0, T)), "sin2": sin2_pulse(g, T),
                 "tanh": tanh_pulse(g, 0.4 * T, (0.0, T))}[shape]
            if lone:
                return lambda: evolve_single(link, p, c0[0], grid, round_trip=(1.0, phi))
            return lambda: evolve_pair(link, p, p, c0, grid)

        runs = [run(0.5, T) for T in (2.2, 2.6, 3.0, 3.4, 3.13, 2.61, 3.4, 3.0)]
        runs += [run(0.5, T, shape=s) for T in (4.0, 4.3, 4.3) for s in ("sin2", "tanh")]
        runs += [run(0.8, T, lone=True, steps=20) for T in (3.0, 3.7, 3.7, 5.05)]
        runs += [run(0.5, T, phi=phi) for T, phi in ((2.2, 0.7), (3.1, 0.7), (3.1, 1.1))]
        runs += [run(0.5, T, c0=(0.6, 0.8j)) for T in (2.2, 3.1, 2.9)]
        runs += [run(0.8, T, phi=1.9, c0=(0.6j, 0.0), lone=True, steps=20) for T in (3.0, 4.0)]
        rk4_steps[0] = 0
        warm = [(w, echo(w), samples(w)) for w in (r() for r in runs)]
        warm_steps, rk4_steps[0] = rk4_steps[0], 0
        for r, (w, wb, wg) in zip(runs, warm):
            c = cold(r)
            for x, y in ((w.c, c.c), (wb, echo(c)), (wg, samples(c))):
                assert x.dtype == y.dtype
                assert_same_bits(x, y)
            assert w.c.flags.owndata and wg.flags.owndata
        assert warm_steps < 0.7 * rk4_steps[0]  # 0.64 measured

    @pytest.mark.parametrize("steps", [4, 5])
    def test_smallest_blocks_resume(self, steps, rk4_steps):
        # P = 4 or 5: each run resumes from the last one at the same phase and
        # c0, growing from shorter than a block to a whole number of blocks,
        # past it to mid-block, and back; constant and tanh couplings keep
        # their first samples as the duration changes
        def runs(shape, phi, c0):
            for T in (0.5, 3.0, 2.6, 3.4, 3.0, 0.5):
                grid = make_grid(1.0, T, steps)
                p = (constant_pulse(0.7, (0.0, T)) if shape == "constant"
                     else tanh_pulse(0.7, 1.3, (0.0, T)))
                pair, lone = make_link(0.7, 1.0, phi), make_link(0.7, 1.0, 0.0)
                yield (lambda p=p, grid=grid, link=pair: evolve_pair(link, p, p, c0, grid),
                       ((p, p), c0, grid, 2 * steps, 2.0 * phi))
                yield (lambda p=p, grid=grid: evolve_single(lone, p, c0[0], grid,
                                                            round_trip=(1.0, 2.0 * phi)),
                       ((p,), c0[:1], grid, steps, 2.0 * phi))

        for shape in ("constant", "tanh"):
            for phi, c0 in SMALL_BLOCK_STARTS:
                calls = list(runs(shape, phi, c0))
                dde._last.clear()
                rk4_steps[0] = 0
                warm = [ran(run) for run, _ in calls]
                warm_steps, rk4_steps[0] = rk4_steps[0], 0
                for (w, wb), (run, ref) in zip(warm, calls):
                    c, cb = cold(lambda: ran(run))
                    for x, y in ((w.c, c.c), (wb, cb)):
                        assert_same_bits(x, y)
                    pulses, z0, grid, R, big_phi = ref
                    c, b = stepwise(pulses, [complex(z) for z in z0], grid, R, big_phi)
                    assert_same_bits(w.c, c)
                    assert_same_bits(wb, b)
                assert warm_steps < rk4_steps[0]

    def test_lone_runs_resume_across_pair_runs(self, rk4_steps):
        # a lone emitter's run is kept apart from a pair's: lone runs at
        # growing and then shorter durations, each after a pair run, resume
        # from the last lone run (R = P = 40 steps); a pair run at another
        # coupling changes its first step, so pairs run cold
        link = make_link(0.5, 1.0, 0.0)

        def lone(T):
            return lambda: evolve_single(link, constant_pulse(0.5, (0.0, T)), 1.0,
                                         make_grid(1.0, T, 20))

        def pair(g):
            p = constant_pulse(g, (0.0, 2.0))
            return lambda: evolve_pair(link, p, p, (1.0, 0.0), make_grid(1.0, 2.0, 20))

        # N = 60, 100, 120, 50 resume at K = 0, 40, 80 (the last block of the
        # stored 100 steps) and 40 (a run shorter than the stored one)
        runs = [lone(3.0), pair(0.3), lone(5.0), pair(0.4), lone(6.0), pair(0.6), lone(2.5)]
        rk4_steps[0] = 0
        warm = [ran(r) for r in runs]
        # a pair's second emitter is not stepped before its first echo
        assert rk4_steps[0] == (60 + 60 + 40 + 10) + 3 * (40 + 20)
        for r, (w, wb) in zip(runs, warm):
            c, cb = cold(lambda: ran(r))
            assert_same_bits(w.c, c.c)
            assert_same_bits(wb, cb)

    def test_changed_sample_stops_reuse(self, rk4_steps, sampled):
        # pulses sampled at the nodes and half nodes; sample m = 2j changes
        # node j, m = 2j + 1 half node j, and the run resumes from the last
        # block boundary K with nodes [0, K] and half nodes [0, K) unchanged
        link = make_link(0.6, 1.0, 0.0)
        grid = make_grid(1.0, 6.0, 40)
        t = np.arange(2 * grid.n_steps + 1) * (0.5 * grid.h)
        v = 0.5 + 0.1 * np.sin(t)
        for m in (194, 240, 241, 242, 281, 400):
            w = v.copy()
            w[m] += 1e-3
            run = lambda g: evolve_pair(link, sampled(t, g), sampled(t, g), (0.6, 0.8), grid)
            c, cb = cold(lambda: ran(lambda: run(w)))
            run(v)
            rk4_steps[0] = 0
            warm = run(w)
            assert rk4_steps[0] == 2 * (grid.n_steps - (m - 1) // 2 // 40 * 40)
            assert_same_bits(warm.c, c.c)
            assert_same_bits(echo(warm), cb)

    def test_threads_resume_from_each_others_runs(self):
        # more threads than cores, switching often, each running the same
        # calls in its own order: every result must still be the cold one
        link = make_link(0.5, 1.0, 0.0)
        calls = [lambda T=T, c0=c0: evolve_pair(link, constant_pulse(0.5, (0.0, T)),
                                                constant_pulse(0.5, (0.0, T)), c0,
                                                make_grid(1.0, T, 20))
                 for T in (2.0, 2.5, 3.0, 3.5, 4.0) for c0 in ((1.0, 0.0), (0.6, 0.8j))]
        expected = [cold(f).c for f in calls]
        wrong = []

        def worker(seed):
            try:
                for i in np.random.default_rng(seed).permutation(len(calls)).tolist() * 10:
                    if not np.array_equal(calls[i]().c.view(np.uint64),
                                          expected[i].view(np.uint64)):
                        wrong.append(i)
            except Exception as exc:  # a torn read of the slot may raise instead
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []

    def test_failed_run_releases_the_stored_run(self, rk4_steps, sampled):
        # a run reads the stored run of its emitter count by taking it out:
        # one that resumes from it (K = 60 of 120 steps) and then diverges
        # stores nothing, so the next run starts cold and equals a cold run
        link = make_link(0.5, 1.0, 0.0)
        grid = make_grid(1.0, 6.0, 20)
        t = np.arange(2 * grid.n_steps + 1) * (0.5 * grid.h)
        calm = 0.5 + 0.1 * np.sin(t)
        wild = np.where(t < 4.0, calm, 3000.0)  # gamma*h = 150 from step 80 on
        run = lambda g: evolve_pair(link, sampled(t, g), sampled(t, g), (0.6, 0.8), grid)
        expected, expected_b = cold(lambda: ran(lambda: run(calm)))
        rk4_steps[0] = 0
        with pytest.raises(RuntimeError, match="grid too coarse"):
            run(wild)
        assert rk4_steps[0] == 2 * (grid.n_steps - 60)
        assert 2 not in dde._last
        rk4_steps[0] = 0
        again = run(calm)
        assert rk4_steps[0] == 2 * grid.n_steps
        assert_same_bits(again.c, expected.c)
        assert_same_bits(echo(again), expected_b)

    def test_returned_arrays_are_the_stored_run_read_only(self, rk4_steps):
        # c is the stored run's own array, so writing to it fails and the
        # next run resumes from the run as it was made:
        # N = 100 after a run of N = 80 resumes at K = 80 (P = 20)
        link = make_link(0.5, 1.0, 0.0)

        def run(T, c0):
            p = constant_pulse(0.5, (0.0, T))
            return evolve_pair(link, p, p, c0, make_grid(1.0, T, 20))

        for c0 in ((1.0, 0.0), (0.6, 0.8j)):
            expected, expected_b = cold(lambda: ran(lambda: run(5.0, c0)))
            first = cold(lambda: run(4.0, c0))
            with pytest.raises(ValueError, match="read-only"):
                first.c[0, 1] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                first.c *= 2.0
            assert first.c is dde._last[2][3]
            rk4_steps[0] = 0
            again = run(5.0, c0)
            assert rk4_steps[0] == (2 if c0[1] == 0.0 else 4) * 20
            assert_same_bits(again.c, expected.c)
            assert_same_bits(echo(again), expected_b)

    def test_imaginary_start_is_i_times_real_run(self):
        # phi = 0 and c0 = (1j, 0): the complex route steps only imaginary
        # parts, with the real route's arithmetic
        link = make_link(0.7, 1.0, 0.0)
        grid = make_grid(1.0, 4.3, 50)
        p1, p2 = sin2_pulse(0.7, 4.3), sin2_pulse(0.7, 4.3, mirror=True)
        re, re_b = ran(lambda: evolve_pair(link, p1, p2, (1.0, 0.0), grid))
        im, im_b = ran(lambda: evolve_pair(link, p1, p2, (1j, 0.0), grid))
        assert np.array_equal(im.c, 1j * re.c)
        assert np.array_equal(im_b, 1j * re_b)
        re = evolve_single(link, p1, 1.0, grid)
        im = evolve_single(link, p1, 1j, grid)
        assert np.array_equal(im.c, 1j * re.c)


def traced_cold_pair_run(T):
    """A cold sin2 pair run of T tau at 200 steps per tau, gamma tau = 0.1:
    (steps, bytes held on return, peak bytes) as tracemalloc traces them."""
    link = make_link(0.1, 1.0, 0.0)
    p = sin2_pulse(0.1, T)
    run = lambda: evolve_pair(link, p, p, (1.0, 0.0), make_grid(1.0, T, 200))
    cold(run)  # one-off allocations of a first call stay out of the trace
    dde._last.clear()
    tracemalloc.start()
    try:
        traj = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return traj.grid.n_steps, held, peak


def test_cold_run_peaks_near_what_it_holds():
    # the RK4 coefficients are Python floats for one block at a time, and
    # the couplings and the norm check's terms are made dde._SPAN columns at
    # a time, so a cold pair run's traced peak stays within 1.3x of what it
    # still holds on return, the stored run that its Trajectory shares
    # (1.25x measured; 2.26x with the whole run's coefficients as Python
    # floats)
    steps, held, peak = traced_cold_pair_run(40.0)
    assert steps == 8000
    assert peak <= 1.3 * held


def test_cold_run_peak_per_step():
    # a pair run holds 96 B per step: its node and half-node samples, c
    # (float in a real problem) and three rows of echo history; nothing else
    # made for the run grows with it (107 B/step measured)
    steps, held, peak = traced_cold_pair_run(100.0)
    assert steps == 20000
    assert peak <= 125 * steps


def test_kernel_split_counts_runs_blocks_and_row_steps():
    # tools/kernel_split.py wraps the kernel from outside: two cold pair
    # runs of 2.6 tau at 20 steps per tau take 3 blocks each, the second
    # emitter at rest through the first (52 + 32 steps)
    path = Path(__file__).resolve().parents[1] / "tools" / "kernel_split.py"
    spec = importlib.util.spec_from_file_location("kernel_split", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    link, grid = make_link(0.5, 1.0, 0.0), make_grid(1.0, 2.6, 20)

    def two_runs():
        dde._last.clear()
        for g in (0.5, 0.6):
            p = constant_pulse(g, (0.0, 2.6))
            evolve_pair(link, p, p, (1.0, 0.0), grid)

    wrapped = (dde._method_of_steps, dde._rk4_steps, dde.run_inputs)
    s = tool.split(dde, two_runs)
    assert (s["runs"], s["blocks"], s["row_steps"]) == (2, 6, 2 * (52 + 32))
    assert min(s["rk4_s"], s["sampling_s"], s["rest_s"]) > 0.0
    assert s["rest_s"] == s["kernel_s"] - s["rk4_s"] - s["sampling_s"]
    assert (dde._method_of_steps, dde._rk4_steps, dde.run_inputs) == wrapped


def test_memory_split_marks_each_stage(tmp_path, monkeypatch):
    # tools/memory_split.py wraps cli.main and protocols.run_protocol from
    # outside: a pass's stages end with its spectrum command, at its first
    # CZKM run (the series draws before it) and with each CZKM point
    from shortlink import cli, protocols
    path = Path(__file__).resolve().parents[1] / "tools" / "memory_split.py"
    spec = importlib.util.spec_from_file_location("memory_split", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SHORTLINK_OUTDIR", str(tmp_path))
    argv = ["spectrum", "--gamma-tau", "0.15", "--delta-steps", "1", "--omega-steps", "11"]

    class Workload:
        setup_argv = argv + ["--out", "setup.csv"]

        def run_pass(self):
            cli.main(argv + ["--out", "pass.csv"])
            for T in (3.0, 4.5):
                protocols.run_protocol(protocols.ProtocolSpec("czkm", 0.5, T),
                                       make_link(0.5, 1.0, 0.0), 20)

    wrapped = (cli.main, protocols.run_protocol)
    marks = tool.crosscheck_stages(cli, protocols, Workload())
    assert [stage for stage, _ in marks] == ["set-up", "spectrum", "series draws",
                                            "czkm:0.5@3", "czkm:0.5@4.5"]
    mb = [x for _, x in marks]
    assert 0 < mb[0] and mb == sorted(mb)
    assert (cli.main, protocols.run_protocol) == wrapped
    link, grid = make_link(0.5, 1.0, 0.0), make_grid(1.0, 3.0, 20)
    p = constant_pulse(0.5, (0.0, 3.0))
    steps, held, peak = tool.traced_run(dde, lambda: evolve_pair(link, p, p, (1.0, 0.0), grid))
    assert steps == 60 and 0 < held <= peak


@pytest.mark.parametrize("emitters, run", [
    (1, lambda link, pulses, c0, grid: evolve_single(link, pulses[0], c0[0], grid)),
    (2, lambda link, pulses, c0, grid: evolve_pair(link, *pulses, c0, grid)),
    (2, lambda link, pulses, c0, grid: evolve_ww(link, build_modes(link, 5), pulses, c0, grid)),
], ids=["evolve_single", "evolve_pair", "evolve_ww"])
def test_inputs_fail_before_the_first_step(emitters, run, rk4_steps, sampled):
    # one front end, core.run_inputs, checks every integrator's inputs: a NaN
    # or inf coupling sample fails before the method of steps takes an RK4
    # step, and a bad c0 gives one message (an overflowing norm included)
    link = make_link(0.5, 1.0, 0.0)
    grid = make_grid(1.0, 2.0, 40)
    good = constant_pulse(0.5, (0.0, 2.0))
    mutated = constant_pulse(0.5, (0.0, 2.0))
    mutated.params["gamma0"] = math.nan  # a frozen pulse's params dict still changes
    for bad in (sampled([0.0, 2.0], [0.5, math.nan]), sampled([0.0, 2.0], [0.5, math.inf]),
                mutated):
        with pytest.raises(ValueError, match=f"^{re.escape(NON_FINITE)}$"):
            run(link, (bad, good), (1.0, 0.0), grid)
    assert rk4_steps[0] == 0
    for c0 in ((math.nan, 0.0), (complex(0.0, math.inf), 0.0), (1.2, 0.0), (1e200, 0.0)):
        got = tuple(complex(z) for z in c0[:emitters])
        with pytest.raises(ValueError, match=re.escape(
                "initial amplitudes must be finite with norm <= 1 "
                f"(the single-excitation sector), got {got!r}")):
            run(link, (good, good), c0, grid)
    assert rk4_steps[0] == 0


class TestSingleEmitter:
    def test_markovian_limit_before_first_echo(self):
        traj, grid = single_run(0.4, 1.0, t_end=0.9)
        t = grid.times()
        np.testing.assert_allclose(traj.c[0], np.exp(-0.2 * t), rtol=1e-10)

    def test_matches_series_solution(self):
        # t_end = 5.37 at 100 steps per delay ends 37 steps into a block
        for gamma, phi, t_end, steps, tail in [(0.05, 0.0, 8.0, 200, 0), (0.5, 1.3, 8.0, 200, 0),
                                               (2.0, 4.0, 8.0, 200, 0), (0.5, 1.3, 5.37, 100, 37),
                                               (1.7, 0.4, 5.37, 100, 37)]:
            traj, grid = single_run(gamma, phi, t_end=t_end, steps=steps)
            assert grid.n_steps % steps == tail
            p = SeriesParams(gamma=gamma, delay=1.0, phi=phi)
            exact = np.array([series_solution(p, t) for t in grid.times()])
            assert np.max(np.abs(traj.c[0] - exact)) < 1e-7

    def test_fourth_order_convergence(self):
        gamma, phi = 0.8, 2.0
        p = SeriesParams(gamma=gamma, delay=1.0, phi=phi)
        errs = []
        for steps in (25, 50, 100):
            traj, grid = single_run(gamma, phi, t_end=4.0, steps=steps)
            exact = np.array([series_solution(p, t) for t in grid.times()])
            errs.append(np.max(np.abs(traj.c[0] - exact)))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 > 3.5 and order2 > 3.5

    def test_non_finite_input_rejected(self):
        # a pulse fails on construction; non-finite samples, and c0, fail in
        # the integrators' front end (test_inputs_fail_before_the_first_step)
        with pytest.raises(ValueError, match="^gamma0 must be finite, got nan$"):
            constant_pulse(math.nan, (0.0, 3.0))

    @pytest.mark.parametrize("gamma, steps, t_end, grew", [
        (3000.0, 200, 3.0, "diverged"),              # gamma*h = 15: inf and NaN
        (600.0, 100, 0.3, "exceeded 1 by 1.987e+08"),  # gamma*h = 6: finite growth
    ])
    def test_unstable_grid_blamed_not_couplings(self, gamma, steps, t_end, grew):
        # every coupling is finite, so the grid is at fault; no numpy warning escapes
        grid = make_grid(1.0, t_end, steps)
        for delta in (0.0, 1.3):  # the real and the complex route
            link = make_link(gamma, 1.0, delta)
            pulse = constant_pulse(gamma, (0.0, grid.t_end))
            for run in (lambda: evolve_single(link, pulse, 1.0, grid),
                        lambda: evolve_pair(link, pulse, pulse, (1.0, 0.0), grid)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(RuntimeError, match=re.escape(
                            f"single-excitation norm {grew}; grid too coarse "
                            f"(gamma_max*h = {gamma * grid.h:g})")):
                        run()

    def test_round_trip_step_validation(self):
        link = make_link(0.1, 1.0, 0.0)
        grid = make_grid(1.0, 3.0, 10)
        pulse = constant_pulse(0.1, (0.0, 3.0))
        with pytest.raises(ValueError):
            evolve_single(link, pulse, 1.0, grid, round_trip=(0.123, 0.0))

    def test_norm_never_exceeds_one(self):
        for gamma, phi in [(0.1, 0.7), (1.5, 3.0)]:
            traj, _ = single_run(gamma, phi, t_end=10.0)
            assert np.max(np.abs(traj.c[0]) ** 2) <= 1.0 + 1e-9


def output_field_sum(traj, gamma, big_phi, l, i):
    """Echo field at step i, round-trip phase big_phi, via the explicit truncated sum over past emissions.

    Independent of the integrator's recursion for the echo field; used to cross-check it.
    """
    R = traj.echo_delay_steps
    total = 0j
    n = 0
    while i - n * R >= 0:
        j = i - n * R
        amp = math.sqrt(gamma[l, j]) * traj.c[l, j]
        total += phase_factor(big_phi, n) * amp
        n += 1
    return total


class TestEchoField:
    def test_recursion_equals_explicit_sum(self):
        link = make_link(0.3, 1.0, 1.1)
        grid = make_grid(1.0, 6.0, 50)
        pulse = constant_pulse(0.3, (0.0, 6.0))
        traj, b = ran(lambda: evolve_pair(link, pulse, pulse, (1.0, 0.0), grid))
        gamma = samples(traj)
        for l in (0, 1):
            for i in (0, 50, 117, 298):  # t = 0, 1, 2.34, 5.96
                want = output_field_sum(traj, gamma, 2.0 * link.phi, l, i)
                assert b[l, i] == pytest.approx(want, abs=1e-12)


class TestTwoEmitters:
    def test_emitter_exchange_symmetry(self):
        # swapping initial conditions swaps the trajectories
        link = make_link(0.2, 1.0, 2.0)
        grid = make_grid(1.0, 8.0, 100)
        p = constant_pulse(0.2, (0.0, 8.0))
        a = evolve_pair(link, p, p, (1.0, 0.0), grid)
        b = evolve_pair(link, p, p, (0.0, 1.0), grid)
        np.testing.assert_allclose(a.c[0], b.c[1], atol=1e-14)
        np.testing.assert_allclose(a.c[1], b.c[0], atol=1e-14)

    def test_linearity_in_initial_condition(self):
        link = make_link(0.2, 1.0, 1.0)
        grid = make_grid(1.0, 6.0, 80)
        p = constant_pulse(0.2, (0.0, 6.0))
        z = 0.5 * np.exp(0.7j)
        a = evolve_pair(link, p, p, (1.0, 0.0), grid)
        b = evolve_pair(link, p, p, (z, 0.0), grid)
        np.testing.assert_allclose(b.c, z * a.c, atol=1e-13)

    def test_global_phase_invariance_of_populations(self):
        link = make_link(0.3, 1.0, 0.5)
        grid = make_grid(1.0, 5.0, 60)
        p = constant_pulse(0.3, (0.0, 5.0))
        a = evolve_pair(link, p, p, (1.0, 0.0), grid)
        b = evolve_pair(link, p, p, (np.exp(1.9j), 0.0), grid)
        np.testing.assert_allclose(a.populations(), b.populations(), atol=1e-13)

    def test_decoupled_when_other_pulse_off(self):
        # cross echo needs the partner to emit; an inert partner leaves the
        # active emitter following its own single-emitter dynamics
        link = make_link(0.4, 1.0, 0.0)
        grid = make_grid(1.0, 6.0, 100)
        on = constant_pulse(0.4, (0.0, 6.0))
        off = constant_pulse(0.0, (0.0, 6.0))
        pair = evolve_pair(link, on, off, (1.0, 0.0), grid)
        single = evolve_single(link, on, 1.0, grid)
        np.testing.assert_allclose(pair.c[0], single.c[0], atol=1e-12)
        np.testing.assert_allclose(pair.c[1], 0.0, atol=1e-12)

    def test_sector_identity(self):
        # with equal couplings c1 +- c2 each follow a one-delay single-emitter
        # DDE, round trip (tau, phi) for + and (tau, phi + pi) for -, for any
        # common gamma(t); this checks the cross-echo term against an
        # independent route.  t_end = 7.3 at 200 steps per tau ends 60 steps
        # into a block
        const = lambda g, t_end: constant_pulse(g, (0.0, t_end))
        for gamma, phi, steps, t_end, tail, pulse, c0 in [
                (0.5, 0.0, 200, 12.0, 0, const, (1.0, 0.0)),
                (0.2, 1.1, 50, 8.3, 15, const, (1.0, 0.0)),
                (2.0, 4.0, 100, 6.0, 0, const, (1.0, 0.0)),
                (1.2, 0.9, 200, 7.3, 60, sin2_pulse, (0.6, 0.8j))]:
            link = make_link(gamma, 1.0, phi)
            grid = make_grid(1.0, t_end, steps)
            assert grid.n_steps % steps == tail
            p = pulse(gamma, grid.t_end)
            pair = evolve_pair(link, p, p, c0, grid)
            plus, minus = (evolve_single(link, p, c0[0] + s * c0[1], grid,
                                         round_trip=(1.0, phi + shift)).c[0]
                           for s, shift in ((1, 0.0), (-1, math.pi)))
            np.testing.assert_allclose(pair.c[0], 0.5 * (plus + minus), rtol=0, atol=1e-12)
            np.testing.assert_allclose(pair.c[1], 0.5 * (plus - minus), rtol=0, atol=1e-12)

    def test_rabi_exchange_time(self):
        # joint oscillation at Omega = sqrt(gamma0/tau): first transfer
        # maximum close to T = pi/Omega in the weak-coupling regime
        g = 0.1
        link = make_link(g, 1.0, 0.0)
        grid = make_grid(1.0, 14.0, 100)
        p = constant_pulse(g, (0.0, 14.0))
        traj = evolve_pair(link, p, p, (1.0, 0.0), grid)
        pop2 = traj.populations()[1]
        t_peak = traj.t[int(np.argmax(pop2))]
        assert t_peak == pytest.approx(math.pi / math.sqrt(g), rel=0.05)
        assert np.max(pop2) > 0.95

    def test_initial_norm_validation(self):
        # the initial norm may round past 1 by core.NORM_SLACK (1e-9), no further
        link = make_link(0.1, 1.0, 0.0)
        grid = make_grid(1.0, 2.0, 20)
        p = constant_pulse(0.1, (0.0, 2.0))
        evolve_pair(link, p, p, (1.0, 1e-5), grid)  # norm 1 + 1e-10
        with pytest.raises(ValueError, match="norm <= 1"):
            evolve_pair(link, p, p, (1.0, 1e-4), grid)  # norm 1 + 1e-8

    def test_too_few_steps_per_tau_rejected(self):
        # the half-node stencil needs four steps inside each delay
        link = make_link(0.5, 1.0, 0.0)
        grid = TimeGrid(h=0.5, steps_per_tau=2, t_end=4.0, n_steps=8)
        p = constant_pulse(0.5, (0.0, 4.0))
        with pytest.raises(ValueError, match=">= 4"):
            evolve_pair(link, p, p, (1.0, 0.0), grid)
