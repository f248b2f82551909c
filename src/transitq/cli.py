"""Command-line front door: analyze, simulate, sweep, compare, roots.

Exit codes are a stable contract: 0 success, 1 tolerance failure,
2 input/validation error, 3 numeric/solver failure.  Commands return 0 or 1
and raise on failure; ``main`` maps each exception class to its code in one
place and prints a single ``error:`` line.  I/O errors count as input errors,
and a sweep station that fails in a worker process is reported exactly as in
a serial sweep.  Every file or stdout document goes through the renderer of
``transitq.report``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import model, report
from .headway import y_pgf
from .model import Scenario, expand_grid
from .roots import RootSearchError, find_all_roots
from .simulator import SimConfig, SimStats, StationSimStats, compare, run_simulation
from .solver import (SolverError, UnstableStationError, analyze_route, den_eval,
                     trimmed_space)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _load_config(spec: str) -> Scenario:
    """A config is either a JSON scenario file or a built-in preset name."""
    path = Path(spec)
    if path.exists():
        return model.load_scenario(path)
    try:
        return model.preset(spec)
    except ValueError:
        raise ValueError(f"config {spec!r} is neither a readable file nor a preset "
                         f"({', '.join(sorted(model.PRESETS))})")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_analyze(args) -> int:
    route_report = analyze_route(_load_config(args.config))
    _emit(report.render(report.ROUTE, report.route_report_to_json(route_report),
                        args.format), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load_config(args.config)
    stats = run_simulation(scenario, SimConfig(runs=args.runs, seed=args.seed,
                                               warmup=args.warmup))
    _emit(report.render(report.SIM, report.sim_stats_to_json(stats), args.format),
          args.out)
    return EXIT_OK


def _sweep_point(args, scenario: Scenario, value) -> list[dict]:
    """Analyze (and optionally simulate) one sweep value; returns index rows.

    Module-level so a process pool can pickle it.
    """
    route_report = analyze_route(scenario)
    stem = f"{args.param}_{model.value_tag(value)}"
    report.write_route_report(route_report, Path(args.out) / f"{stem}.{args.format}",
                              args.format)
    if args.simulate:
        stats = run_simulation(scenario, SimConfig(runs=args.runs, seed=args.seed,
                                                   warmup=args.warmup))
        report.write_sim_stats(stats, Path(args.out) / f"{stem}_sim.{args.format}",
                               args.format)
    return report.sweep_entries(args.param, value, route_report, f"{stem}.{args.format}")


def cmd_sweep(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    scenario = _load_config(args.config)
    values = []
    for tok in filter(None, (t.strip() for t in args.values.split(","))):
        val = float(tok)
        if args.param == "capacity":
            if not val.is_integer():
                raise ValueError(f"capacity sweep value {tok!r} is not an integer")
            val = int(val)
        values.append(val)
    if not values:
        raise ValueError("no sweep values given")
    scenarios = expand_grid(scenario, args.param, values)

    Path(args.out).mkdir(parents=True, exist_ok=True)
    point = partial(_sweep_point, args)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs <= 1 or len(values) == 1:
        results = list(map(point, scenarios, values))
    else:
        # imported here: only a parallel sweep pays for the process machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(point, scenarios, values))

    entries = [row for rows in results for row in rows]
    report.write_sweep_index(entries, Path(args.out) / "index.csv", scenario.label)
    return EXIT_OK


def _sim_stats_from_report(route_report) -> SimStats:
    """Adapt an analytical report into the simulation-stats shape.

    Lets `compare --sim` accept a theory report (the self-comparison case);
    standard errors are zero and realized-headway fields are undefined.
    """
    stations = [StationSimStats(
        station=sm.station, q_mean=sm.eq, q_var=sm.varq, q_mean_se=0.0,
        w_mean=sm.ew, w_var=sm.varw, w_mean_se=0.0,
        headway_mean=math.nan, headway_var=math.nan, boarded=0)
        for sm in route_report.stations]
    return SimStats(label=route_report.label, runs=0, seed=0, warmup=0.0,
                    stations=tuple(stations))


def _load_sim_side(path: str) -> SimStats:
    try:
        return report.read_sim_stats(path)
    except ValueError:
        return _sim_stats_from_report(report.read_route_report(path))


def cmd_compare(args) -> int:
    theory = report.read_route_report(args.theory)
    sim = _load_sim_side(args.sim)
    if theory.label != sim.label:
        raise ValueError(f"scenario label mismatch: theory {theory.label!r} "
                         f"vs simulation {sim.label!r}")
    table = compare(theory, sim, tol_mean=args.tol_mean, tol_sd=args.tol_var)
    _emit(report.render(report.COMPARISON, report.comparison_to_json(table), args.format),
          args.out)
    return EXIT_OK if table.passed else EXIT_TOLERANCE


def cmd_roots(args) -> int:
    route_report = analyze_route(_load_config(args.config))
    if not 1 <= args.station <= route_report.num_stations:
        raise ValueError(f"station {args.station} outside 1..{route_report.num_stations}")
    sm = route_report.stations[args.station - 1]
    if not sm.stable:
        raise UnstableStationError(f"station {args.station} is unstable (rho = "
                                   f"{report.fmt_value(sm.rho)}); no root set exists")
    s_eff = trimmed_space(sm.service_dist)
    y_handle = partial(y_pgf, lam=sm.arrival_rate, model=route_report.headway[sm.station - 1])
    # analyze_route stores the root set of every station with arrivals;
    # without arrivals Y = 1 and the roots are those of z^C = P(z)
    roots = sm.roots or find_all_roots(s_eff.probs, y_handle, sm.rho)
    residuals = np.abs(den_eval(np.asarray(roots, dtype=complex), s_eff, y_handle))
    _emit(report.roots_to_csv(roots, residuals, route_report.label), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transitq",
        description="Closed-form queue and wait statistics for a transit line "
                    "under random service suspensions, with a validating simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True):
        p.add_argument("--config", default="reference",
                       help="scenario JSON file or preset name (default: reference)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("analyze", help="closed-form per-station report")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="discrete-event simulation stats")
    add_common(p)
    p.add_argument("--runs", type=int, default=50_000, help="vehicles (min 100)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--warmup", type=float, default=0.10,
                   help="fraction of vehicles dropped from statistics")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="reports over a parameter grid")
    p.add_argument("--config", default="reference")
    p.add_argument("--param", required=True, choices=model.SWEEPABLE)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--simulate", action="store_true",
                   help="also simulate each sweep point")
    p.add_argument("--runs", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--warmup", type=float, default=0.10)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: available parallelism)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="check simulation against theory")
    p.add_argument("--theory", required=True, help="route report file")
    p.add_argument("--sim", required=True,
                   help="simulation stats file (a route report is also accepted)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tol-mean", type=float, default=0.08,
                   help="relative tolerance on mean queue/wait (floors scale with it)")
    p.add_argument("--tol-var", type=float, default=0.12,
                   help="relative tolerance on queue/wait standard deviations")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("roots", help="dump one station's root set as CSV")
    p.add_argument("--config", default="reference")
    p.add_argument("--station", type=int, required=True, help="1-based station index")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_roots)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # InvalidScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, RootSearchError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
