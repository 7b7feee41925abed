"""In-memory spans around the public functions of each shortlink module.

The package binds names at import time (`from .dde import evolve_pair`), so
wrapping only the defining module would miss most call sites.  `Tracer`
therefore replaces every binding of a traced function in every loaded
`shortlink` module -- the defining module, each importer and the package
namespace -- and restores the originals on `uninstall`.

A span is (function index, start, end, parent span index, count).  The
count is the function's unit of work (grid steps, points, bytes, ...)
taken from its arguments or result; for the duration optimisers it is the
coupling they were asked for, so evaluations can be attributed per point.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


def _steps(args, kwargs, out):
    return out.grid.n_steps


def _coupling(args, kwargs, out):
    return float(args[0] if args else kwargs["gamma0_tau"])


def _bytes(args, kwargs, out):
    return Path(out).stat().st_size


# layer, function, name of its work count, count from (args, kwargs, result),
# and an optional rate (name, scale, per "calls" or per unit of work)
TRACED = (
    ("core", "eval_pulse", "points", lambda a, k, out: int(np.size(out)), None),
    ("dde", "evolve_pair", "steps", _steps, ("us_per_step", 1e6, "work")),
    ("dde", "evolve_single", "steps", _steps, ("us_per_step", 1e6, "work")),
    ("ww", "evolve_ww", "mode_steps",
     lambda a, k, out: out.grid.n_steps * out.modes.n_modes,
     ("ns_per_mode_step", 1e9, "work")),
    ("analytic", "series_solution", None, None, ("us_per_call", 1e6, "calls")),
    ("analytic", "eigenfrequencies", "roots", lambda a, k, out: len(out), None),
    ("analytic", "output_spectrum", "points",
     lambda a, k, out: int(out.omegas.size), None),
    ("protocols", "run_protocol", None, None, None),
    ("protocols", "czkm_exact_error", None, None, None),
    ("sweep", "optimal_swap", None, _coupling, None),
    ("sweep", "optimal_stirap", None, _coupling, None),
    ("io", "write_csv", "bytes", _bytes, None),
    ("io", "write_json", "bytes", _bytes, None),
    ("cli", "main", None, None, None),
)
NAMES = tuple(f"{t[0]}.{t[1]}" for t in TRACED)
_DDE = {NAMES.index("dde.evolve_pair"), NAMES.index("dde.evolve_single")}
_OPTIMISERS = {NAMES.index("sweep.optimal_swap"), NAMES.index("sweep.optimal_stirap")}
# evaluation counts reported per optimiser, at these nominal couplings
OPTIMISER_POINTS = ("0.05", "1.0")


class Tracer:
    """Collects spans while installed; `spans` survives `uninstall`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, idx, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                n = count(args, kwargs, out) if (count and out is not None) else 0
                spans[slot] = (idx, t0, t1, parent, n)

        return traced

    def install(self):
        """Wrap every binding of each traced function; returns the sites patched."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "shortlink" or name.startswith("shortlink."))]
        sites = []
        for idx, (layer, fn_name, _, count, _) in enumerate(TRACED):
            orig = getattr(sys.modules[f"shortlink.{layer}"], fn_name)
            wrapper = self._wrap(idx, orig, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
                        sites.append(f"{mod.__name__}.{attr}")
        return sites

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def take(self):
        """Return and clear the spans recorded so far."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans, optimiser_points):
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus the durations of its direct child
    spans (children of one span never overlap: the program is sequential).
    DDE evaluations (`evolve_pair` or `evolve_single` spans) are attributed
    to the enclosing optimiser span; `optimiser_points` maps each label of
    OPTIMISER_POINTS to the coupling whose evaluations are reported under
    it (None when the workload has no such point).
    """
    n = len(NAMES)
    calls, work, busy = [0] * n, [0] * n, [0.0] * n
    child = [0.0] * len(spans)
    for idx, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    evals = {}  # optimiser span index -> DDE evaluations under it
    for s, (idx, t0, t1, parent, count) in enumerate(spans):
        calls[idx] += 1
        busy[idx] += (t1 - t0) - child[s]
        work[idx] += count
        if idx in _DDE:
            p = parent
            while p >= 0 and spans[p][0] not in _OPTIMISERS:
                p = spans[p][3]
            if p >= 0:
                evals[p] = evals.get(p, 0) + 1

    m = {}
    for i, (name, (_, _, work_name, _, rate)) in enumerate(zip(NAMES, TRACED)):
        if i in _OPTIMISERS:
            per_span = [(spans[s][4], e) for s, e in evals.items() if spans[s][0] == i]
            m[f"{name}.self_s"] = busy[i]
            m[f"{name}.evals_per_optimum"] = (
                sum(e for _, e in per_span) / calls[i] if calls[i] else 0.0)
            for label in OPTIMISER_POINTS:
                g = optimiser_points.get(label)
                m[f"{name}.evals_at_{label}"] = sum(e for gg, e in per_span if gg == g)
            continue
        if name != "cli.main":
            m[f"{name}.calls"] = calls[i]
        if work_name:
            m[f"{name}.{work_name}"] = work[i]
        m[f"{name}.self_s"] = busy[i]
        if rate:
            rate_name, scale, per = rate
            base = work[i] if per == "work" else calls[i]
            m[f"{name}.{rate_name}"] = scale * busy[i] / base if base else 0.0
    return m


def is_count(metric):
    """True for per-layer metrics that count work (these repeat exactly)."""
    return not metric.endswith(("self_s", "us_per_step", "us_per_call",
                                "ns_per_mode_step", "overhead_frac"))


def dump(path, spans):
    """Write spans as JSON lines: name, start and end (s), parent, count."""
    with open(path, "w") as fh:
        for idx, t0, t1, parent, count in spans:
            fh.write(f'["{NAMES[idx]}",{t0!r},{t1!r},{parent},{count!r}]\n')
