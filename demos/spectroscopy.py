"""Output-spectrum heatmap: avoided crossings and quasi-dark suppression.

Sweeping the emitter frequency Delta across one free spectral range and
recording the emitted power spectrum reveals the hybridized eigenfrequency
ladder: avoided crossings of size ~2*sqrt(gamma/2tau) whenever Delta hits a
link mode, and near-complete suppression of the emitter line at the
quasi-dark points Delta*tau = (2n-1)*pi/2.

Run:  python3 demos/spectroscopy.py
Writes spectroscopy.csv (heatmap) and spectroscopy_eigen.csv (overlay).
"""

import math

import numpy as np

from shortlink.analytic import (eigenfrequencies, output_amplitude,
                                resonant_splitting, spectrum_scan)
from shortlink.core import make_link
from shortlink.io import heatmap_lines, write_csv

gamma, tau = 0.15, 1.0
d0 = 50.0 * math.pi  # work around the 50th link mode

deltas = np.linspace(d0, d0 + math.pi, 81)
omegas = np.linspace(d0 - 0.5 * math.pi, d0 + 1.5 * math.pi, 601)

eigen_rows = [(d / math.pi, lam / math.pi) for d in deltas
              for lam in eigenfrequencies(make_link(gamma, tau, d), (omegas[0], omegas[-1]))]

split = resonant_splitting(make_link(gamma, tau, d0))
print(f"gamma*tau = {gamma}")
print(f"avoided crossing on resonance: {split:.4f} "
      f"(weak-coupling estimate 2*sqrt(gamma/2tau) = {2 * math.sqrt(gamma / 2):.4f})")

# spectral weight near the emitter line: resonant vs quasi-dark detuning
def line_weight(delta):
    link = make_link(gamma, tau, delta)
    w = np.linspace(delta - 0.5 * math.pi, delta + 0.5 * math.pi, 2001)
    p = np.abs(output_amplitude(link, w, broadening=0.01)) ** 2
    return np.trapezoid(p, w)

print(f"emitter-line weight, resonant / quasi-dark = "
      f"{line_weight(d0) / line_weight(d0 + 0.5 * math.pi):.1f}x suppression")

# heat-map rows (Delta/FSR, omega/FSR, power), each spectrum normalized to 1
blocks = spectrum_scan(gamma, tau, deltas, omegas, 0.02)
p1 = write_csv("spectroscopy.csv", ["delta_fsr", "omega_fsr", "power"],
               heatmap_lines(blocks, omegas, math.pi), {"gamma_tau": gamma, "broadening": 0.02})
p2 = write_csv("spectroscopy_eigen.csv", ["delta_fsr", "lambda_fsr"],
               eigen_rows, {"gamma_tau": gamma})
print(f"wrote {p1} and {p2}")
