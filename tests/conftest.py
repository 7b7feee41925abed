import numpy as np
import pytest

from shortlink import core


@pytest.fixture
def sampled(monkeypatch):
    """sampled(t, g): a pulse the integrators sample as the linear interpolation of (t, g).

    A pulse is one of the three analytic shapes.  Tests that need arbitrary
    samples (one changed sample, NaN, inf) patch core.eval_pulse, which
    core.run_inputs looks up at call time, so both integrators' front end
    reads these pulses' samples from the table; 0 outside [t[0], t[-1]].
    """
    table = []  # (pulse, t, g); a pulse is found by identity
    analytic = core.eval_pulse

    def eval_pulse(p, t):
        for q, ts, g in table:
            if q is p:
                return np.interp(t, ts, g, left=0.0, right=0.0)
        return analytic(p, t)

    monkeypatch.setattr(core, "eval_pulse", eval_pulse)

    def make(t, g):
        t = np.asarray(t, dtype=float)
        p = core.constant_pulse(0.0, (float(t[0]), float(t[-1])))
        table.append((p, t, np.asarray(g, dtype=float)))
        return p
    return make
