"""Command-line entry point: simulate / spectrum / protocol / scan.

All flags take dimensionless groups (gamma0*tau, Delta/FSR, kappa*tau,
T/tau); the traversal time is fixed to tau = 1 internally.  Outputs are
deterministic CSV (with `#` metadata) or JSON; relative output paths
resolve against $SHORTLINK_OUTDIR.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import __version__
from .analytic import eigenfrequencies, spectrum_scan
from .core import _check_finite, constant_pulse, make_grid, make_link
from .dde import evolve_pair, evolve_single
from .io import fmt, write_csv, write_json
from .protocols import (KINDS, ProtocolSpec, check_kind, dark_bright, fidelity,
                        loss_error, make_pulses, run_protocol)
from .sweep import ScanRecord, crossover, error_vs_duration, loss_scan, optimum
from .ww import build_modes, evolve_ww, steps_for_modes


_NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf(inity)?$|nan$)", re.IGNORECASE)


def _meta(**extra):
    m = {"tool": f"shortlink {__version__}"}
    m.update(extra)
    return m


def cmd_simulate(args) -> int:
    link = make_link(args.gamma_tau, 1.0, args.delta_fsr * math.pi)
    grid = make_grid(1.0, args.t_end, args.steps_per_tau)
    pulse = constant_pulse(args.gamma_tau, (0.0, grid.t_end))
    if args.emitters == 1:
        traj = evolve_single(link, pulse, 1.0, grid)
    else:
        traj = evolve_pair(link, pulse, pulse, (1.0, 0.0), grid)
    cols, data = traj._columns()
    cols.append("dpop1_dt")
    data.append(np.gradient(traj.populations()[0], grid.h))
    if args.ww:
        modes = build_modes(link, args.n_modes)
        M = steps_for_modes(link, modes, args.steps_per_tau)
        wgrid = make_grid(1.0, grid.t_end, M)  # ends on the DDE grid's last node
        wpulse = constant_pulse(args.gamma_tau, (0.0, wgrid.t_end))
        ww = evolve_ww(link, modes, (wpulse, wpulse) if args.emitters == 2
                       else (wpulse, constant_pulse(0.0, (0.0, wgrid.t_end))),
                       (1.0, 0.0), wgrid)
        stride = M // args.steps_per_tau
        wp = np.abs(ww.c[:, ::stride][:, : len(traj.t)]) ** 2  # only the nodes printed
        cols += ["ww_pop1", "ww_pop2", "ww_n_photon"]
        data += [wp[0], wp[1], ww.photon[::stride][: len(traj.t)]]
    rows = np.column_stack(data)
    meta = _meta(gamma_tau=args.gamma_tau, delta_fsr=args.delta_fsr,
                 steps_per_tau=args.steps_per_tau, emitters=args.emitters)
    if args.format == "json":
        write_json(args.out, {"meta": meta, "columns": cols,
                              "rows": rows.tolist()})
    else:
        write_csv(args.out, cols, rows, meta)
    return 0


def cmd_spectrum(args) -> int:
    _check_finite("--delta-fsr", args.delta_fsr)
    if args.delta_steps < 1:
        raise ValueError(f"--delta-steps must be >= 1, got {args.delta_steps}")
    if args.omega_steps < 2:
        raise ValueError(f"--omega-steps must be >= 2, got {args.omega_steps}")
    gamma = args.gamma_tau
    d0 = args.delta_fsr * math.pi
    deltas = np.linspace(d0, d0 + math.pi, args.delta_steps).tolist()
    omegas = np.linspace(d0 - 0.5 * math.pi, d0 + 1.5 * math.pi, args.omega_steps)
    # solved before the heatmap is written: a failure here leaves no file
    eigen_rows = [(d / math.pi, lam / math.pi) for d in deltas
                  for lam in eigenfrequencies(make_link(gamma, 1.0, d),
                                              (omegas[0], omegas[-1]))]
    meta = _meta(gamma_tau=gamma, broadening=args.broadening)
    columns = ["delta_fsr", "omega_fsr", "power"]
    if args.format == "json":
        rows = list(spectrum_scan(gamma, 1.0, deltas, omegas, args.broadening,
                                  label=lambda x: x / math.pi))
        write_json(args.out, {"meta": meta,
                              "heatmap": {"columns": columns, "rows": rows},
                              "eigenfrequencies": {"columns": ["delta_fsr", "lambda_fsr"],
                                                   "rows": eigen_rows}})
    else:
        # streamed: one Delta's rows at a time, its labels already text
        write_csv(args.out, columns,
                  spectrum_scan(gamma, 1.0, deltas, omegas, args.broadening,
                                label=lambda x: fmt(x / math.pi)), meta)
        write_csv(str(args.out) + ".eigen.csv",
                  ["delta_fsr", "lambda_fsr"], eigen_rows, meta)
    return 0


def cmd_protocol(args) -> int:
    loss_error(0.0, args.kappa_tau)  # a bad kappa fails here, before any run
    g = args.gamma_tau
    link = make_link(g, 1.0, 0.0)
    if args.scan_t:
        if not args.t_step > 0:
            raise ValueError(f"--t-step must be > 0, got {args.t_step}")
        t_lo = args.t_min if args.t_min is not None else 2.0
        t_hi = args.t_max if args.t_max is not None else 2.0 * math.pi / math.sqrt(g)
        for flag, value in (("--t-min", t_lo), ("--t-max", t_hi)):
            _check_finite(flag, value)
        Ts = np.arange(t_lo, t_hi + 1e-9, args.t_step)
        if Ts.size == 0:
            raise ValueError(f"--scan-t range {t_lo} to {t_hi} holds no duration")
        errs = error_vs_duration(args.kind, g, Ts, args.steps_per_tau)
        write_csv(args.out, ["T_over_tau", "infidelity"],
                  np.column_stack([Ts, errs]),
                  _meta(protocol=args.kind, gamma_tau=g))
        return 0
    if args.optimize:
        if args.kind == "czkm":
            raise SystemExit("--optimize supports swap and stirap")
        T = optimum(args.kind, g, args.steps_per_tau).t_opt
    else:
        if args.t is None:
            raise SystemExit("need --t (or --optimize / --scan-t)")
        T = args.t
    spec = ProtocolSpec(args.kind, g, T)
    traj, record = run_protocol(spec, link, args.steps_per_tau,
                                kappa=args.kappa_tau)
    record["meta"] = _meta()
    if args.kind == "czkm":
        pulses = make_pulses(spec, link)
        db = dark_bright(traj, pulses, link)
        record["dark_bright"] = {
            "t": db.t.tolist(),
            "re_d": db.d.real.tolist(), "im_d": db.d.imag.tolist(),
            "re_b": db.b.real.tolist(), "im_b": db.b.imag.tolist(),
            "u": db.u, "t_eff": db.t_eff,
        }
    write_json(args.out, record)
    return 0


def cmd_scan(args) -> int:
    grid = [float(g) for g in args.grid.split(",")]
    protocols = tuple(args.protocols.split(","))
    # what no row can survive fails here, before any run or file
    loss_error(0.0, args.kappa_tau)
    for kind in protocols:
        check_kind(kind)
    make_grid(1.0, 1.0, args.steps_per_tau)
    status = 0
    if args.loss:
        out = loss_scan(grid, kappa_tau=args.kappa_tau, protocols=protocols,
                        steps_per_tau=args.steps_per_tau)
        rows = [(kind, T, eps) for kind in out for T, eps in out[kind]["rows"]]
        write_csv(args.out, ["protocol", "T_over_tau", "loss_error"], rows,
                  _meta(kappa_tau=args.kappa_tau))
        write_json(str(args.out) + ".fits.json",
                   {k: out[k]["fit"] for k in out})
        return 0
    if args.ww:  # a bad oracle set-up fails here, before any run
        link = make_link(1.0, 1.0, args.delta_fsr * math.pi)
        modes = build_modes(link, args.n_modes)
        M = steps_for_modes(link, modes, args.steps_per_tau)
    records = []
    for kind in protocols:
        for g in grid:
            try:
                records.append(optimum(kind, g, args.steps_per_tau))
            except Exception as exc:  # keep scanning, flag the row
                status = 1
                records.append(ScanRecord(kind, g, float("nan"), float("nan"),
                                          note=f"error: {exc}"))
    rows = [(r.protocol, r.gamma0_tau, r.t_opt, r.infidelity,
             loss_error(r.loss_integral, args.kappa_tau), r.note)
            for r in records]
    write_csv(args.out, ["protocol", "gamma0_tau", "T_opt_over_tau",
                         "infidelity", "loss_error", "note"], rows, _meta())
    summary = {"crossover_gamma0_tau": crossover(records)}
    if args.ww:
        summary["ww"] = _ww_overlay(records, link.delta, modes, M)
    write_json(str(args.out) + ".summary.json", summary)
    return status


def _ww_overlay(records, delta, modes, M):
    """Re-run each optimized protocol point in the mode-resolved model."""
    out = []
    for r in records:
        if not math.isfinite(r.t_opt):
            continue
        link = make_link(r.gamma0_tau, 1.0, delta)
        grid = make_grid(1.0, r.t_opt, M)
        pulses = make_pulses(ProtocolSpec(r.protocol, r.gamma0_tau, r.t_opt), link)
        traj = evolve_ww(link, modes, pulses, (1.0, 0.0), grid)
        F = fidelity(traj, r.t_opt)
        out.append({"protocol": r.protocol, "gamma0_tau": r.gamma0_tau,
                    "T_over_tau": r.t_opt, "ww_infidelity": 1.0 - F})
    return out


class _Parser(argparse.ArgumentParser):
    """argparse that reads `-inf`, `-nan` and `-1e-3` as values.

    argparse reads an argument that starts with '-' as a flag unless it
    matches its negative-number pattern, which knows plain decimals only:
    `--delta-fsr -inf` ended in "expected one argument" where
    `--delta-fsr=-inf` reached the finite-value check.  No flag of this
    CLI looks like a number, so a wider pattern is safe.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="shortlink",
        description="Emitters coupled through a short waveguide link: "
                    "delay-equation simulation, spectroscopy, and "
                    "state-transfer benchmarking.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="time evolution of one or two emitters")
    p.add_argument("--gamma-tau", type=float, required=True)
    p.add_argument("--delta-fsr", type=float, default=50.0,
                   help="emitter frequency in free-spectral-range units")
    p.add_argument("--t-end", type=float, default=12.0)
    p.add_argument("--emitters", type=int, choices=(1, 2), default=1)
    p.add_argument("--ww", action="store_true",
                   help="add mode-resolved overlay columns")
    p.add_argument("--n-modes", type=int, default=401)
    p.add_argument("--steps-per-tau", type=int, default=200)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="simulate.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="output power spectrum vs detuning")
    p.add_argument("--gamma-tau", type=float, required=True)
    p.add_argument("--delta-fsr", type=float, default=50.0)
    p.add_argument("--delta-steps", type=int, default=81,
                   help="points sweeping Delta over one FSR (1 = single spectrum)")
    p.add_argument("--omega-steps", type=int, default=801)
    p.add_argument("--broadening", type=float, default=0.02)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="spectrum.csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("protocol", help="run or optimize one transfer protocol")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--gamma-tau", type=float, required=True)
    p.add_argument("--t", type=float, help="duration in units of tau")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--scan-t", action="store_true",
                   help="emit infidelity vs duration instead of one run")
    p.add_argument("--t-min", type=float)
    p.add_argument("--t-max", type=float)
    p.add_argument("--t-step", type=float, default=0.25)
    p.add_argument("--kappa-tau", type=float, default=0.0, help="loss rate kappa*tau >= 0")
    p.add_argument("--steps-per-tau", type=int, default=200)
    p.add_argument("--out", default="protocol.json")
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("scan", help="protocol benchmark over a coupling grid")
    p.add_argument("--grid", default="0.05,0.1,0.2,0.5,1.0,1.44,2.0")
    p.add_argument("--protocols", default=",".join(KINDS))
    p.add_argument("--loss", action="store_true",
                   help="loss-error scan instead of infidelity scan")
    p.add_argument("--kappa-tau", type=float, default=0.01, help="loss rate kappa*tau >= 0")
    p.add_argument("--ww", action="store_true",
                   help="append mode-resolved cross-check records")
    p.add_argument("--delta-fsr", type=float, default=50.0)
    p.add_argument("--n-modes", type=int, default=401)
    p.add_argument("--steps-per-tau", type=int, default=200)
    p.add_argument("--out", default="scan.csv")
    p.set_defaults(func=cmd_scan)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
