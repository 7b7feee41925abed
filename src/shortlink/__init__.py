"""Emitters coupled through a short waveguide link.

Delay-equation and mode-resolved simulation of one or two emitters on a
finite link, closed-form checks (echo series, derivative kinks,
eigenfrequency ladder, output spectrum), and benchmarking of three
excitation-transfer protocols with loss estimates.
"""

__version__ = "0.1.0"

from .analytic import (SeriesParams, SpectralResult, eigenfrequencies,
                       jump_formula, output_amplitude, output_spectrum,
                       resonant_splitting, series_solution, spectrum_scan)
from .core import (LinkParams, PulseProfile, TimeGrid, Trajectory,
                   constant_pulse, eval_pulse, make_grid, make_link,
                   phase_factor, sin2_pulse, tanh_pulse)
from .dde import derivative_kinks, evolve_pair, evolve_single, population_kinks
from .protocols import (DarkBrightState, ProtocolSpec, czkm_bound,
                        czkm_exact_error, dark_bright, fidelity, loss_error,
                        make_pulses, photon_integral, run_protocol)
from .sweep import (ScanRecord, crossover, error_vs_duration, fit_power_law,
                    loss_scan, optimal_stirap, optimal_swap, optimum, scan_protocols)
from .ww import ModeSet, WWTrajectory, build_modes, evolve_ww, unitarity_defect
