"""Cross-check the delay model against a fully mode-resolved simulation.

The delay equation treats the link as two retarded echo channels; the
oracle keeps a 401-mode ladder of the actual link spectrum and integrates
the joint emitter-field state.  Populations from the two descriptions agree
to better than 1e-2 once the mode ladder is wide enough, which is the whole
justification for using the (much cheaper) delay model everywhere else.

Run:  python3 demos/oracle_crosscheck.py
Writes oracle_crosscheck.csv.
"""

import math
import time

import numpy as np

from shortlink.core import constant_pulse, make_grid, make_link
from shortlink.dde import evolve_pair
from shortlink.io import write_csv
from shortlink.ww import build_modes, evolve_ww, steps_for_modes, unitarity_defect

gamma, tau = 0.1, 1.0
link = make_link(gamma, tau, 50.0 * math.pi)  # emitter at the 50th link mode
modes = build_modes(link, 401)
# fine enough for the widest detuned mode, a multiple of the CLI's 200 steps/tau
grid = make_grid(tau, 12.0, steps_for_modes(link, modes, 200))
pulse = constant_pulse(gamma, (0.0, grid.t_end))

t0 = time.perf_counter()
dde = evolve_pair(link, pulse, pulse, (1.0, 0.0), grid)
t1 = time.perf_counter()
ww = evolve_ww(link, modes, (pulse, pulse), (1.0, 0.0), grid)
t2 = time.perf_counter()

dev = np.max(np.abs(dde.populations() - ww.populations()))
print(f"delay model:    {t1 - t0:.2f} s")
print(f"401-mode oracle: {t2 - t1:.2f} s  (unitarity defect {unitarity_defect(ww):.1e})")
print(f"max population deviation: {dev:.2e}")

rows = np.column_stack([grid.times(), dde.populations()[0], ww.populations()[0],
                        dde.populations()[1], ww.populations()[1]])
path = write_csv("oracle_crosscheck.csv",
                 ["t", "pop1_dde", "pop1_ww", "pop2_dde", "pop2_ww"], rows,
                 {"gamma_tau": gamma, "n_modes": 401})
print(f"wrote {path}")
