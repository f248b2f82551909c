"""Command-line front door: analyze, simulate, sweep, compare, roots.

Exit codes are a stable contract: 0 success, 1 tolerance failure,
2 input/validation error, 3 numeric/solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import model, report
from .headway import y_pgf
from .model import InvalidScenarioError, Scenario, expand_grid
from .roots import RootSearchError, find_all_roots
from .simulator import SimConfig, SimStats, StationSimStats, compare, run_simulation
from .solver import DiscreteDist, SolverError, analyze_route, den_eval

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


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
    try:
        scenario = _load_config(args.config)
        route_report = analyze_route(scenario)
    except (InvalidScenarioError, ValueError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    except (SolverError, RootSearchError, ArithmeticError) as exc:
        _err(str(exc))
        return EXIT_NUMERIC
    if args.format == "json":
        _emit(json.dumps(report.route_report_to_json(route_report), indent=2) + "\n",
              args.out)
    else:
        _emit(report.route_report_to_csv(route_report), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        scenario = _load_config(args.config)
        config = SimConfig(runs=args.runs, seed=args.seed, warmup=args.warmup)
        stats = run_simulation(scenario, config)
    except (InvalidScenarioError, ValueError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    if args.format == "json":
        _emit(json.dumps(report.sim_stats_to_json(stats), indent=2) + "\n", args.out)
    else:
        _emit(report.sim_stats_to_csv(stats), args.out)
    return EXIT_OK


def _sweep_point(task: tuple) -> list[dict]:
    """Analyze (and optionally simulate) one sweep value; returns index rows.

    Module-level so a process pool can pickle it.
    """
    scenario, parameter, value, out_dir, fmt, simulate, runs, seed, warmup = task
    route_report = analyze_route(scenario)
    ext = "json" if fmt == "json" else "csv"
    report_file = f"{parameter}_{value:g}.{ext}"
    report.write_route_report(route_report, Path(out_dir) / report_file, fmt)
    if simulate:
        stats = run_simulation(scenario, SimConfig(runs=runs, seed=seed, warmup=warmup))
        report.write_sim_stats(stats, Path(out_dir) / f"{parameter}_{value:g}_sim.{ext}",
                               fmt)
    return report.sweep_entries(parameter, value, route_report, report_file)


def cmd_sweep(args) -> int:
    try:
        scenario = _load_config(args.config)
        values = []
        for tok in args.values.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if args.param == "capacity":
                val = float(tok)
                if val != int(val):
                    raise ValueError(f"capacity sweep value {tok!r} is not an integer")
                values.append(int(val))
            else:
                values.append(float(tok))
        if not values:
            raise ValueError("no sweep values given")
        scenarios = expand_grid(scenario, args.param, values)
    except (InvalidScenarioError, ValueError) as exc:
        _err(str(exc))
        return EXIT_INPUT

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(sc, args.param, val, str(out_dir), args.format, args.simulate,
              args.runs, args.seed, args.warmup)
             for sc, val in zip(scenarios, values)]
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    try:
        if jobs <= 1 or len(tasks) == 1:
            results = [_sweep_point(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_sweep_point, tasks))
    except (InvalidScenarioError, ValueError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    except (SolverError, RootSearchError, ArithmeticError) as exc:
        _err(str(exc))
        return EXIT_NUMERIC

    entries = [row for rows in results for row in rows]
    report.write_sweep_index(entries, out_dir / "index.csv", scenario.label)
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
    except (ValueError, KeyError):
        return _sim_stats_from_report(report.read_route_report(path))


def cmd_compare(args) -> int:
    try:
        theory = report.read_route_report(args.theory)
        sim = _load_sim_side(args.sim)
        if theory.label != sim.label:
            raise ValueError(f"scenario label mismatch: theory {theory.label!r} "
                             f"vs simulation {sim.label!r}")
        table = compare(theory, sim, tol_mean=args.tol_mean, tol_sd=args.tol_var)
    except (InvalidScenarioError, ValueError, OSError, KeyError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    if args.format == "json":
        _emit(json.dumps(report.comparison_to_json(table), indent=2) + "\n", args.out)
    else:
        _emit(report.comparison_to_csv(table), args.out)
    return EXIT_OK if table.passed else EXIT_TOLERANCE


def cmd_roots(args) -> int:
    try:
        scenario = _load_config(args.config)
        route_report = analyze_route(scenario)
        if not 1 <= args.station <= route_report.num_stations:
            raise ValueError(f"station {args.station} outside 1..{route_report.num_stations}")
    except (InvalidScenarioError, ValueError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    except (SolverError, RootSearchError, ArithmeticError) as exc:
        _err(str(exc))
        return EXIT_NUMERIC

    sm = route_report.stations[args.station - 1]
    if not sm.stable:
        _err(f"station {args.station} is unstable (rho = {report.fmt_value(sm.rho)}); "
             "no root set exists")
        return EXIT_NUMERIC
    try:
        probs = sm.service_dist.probs
        ceff = sm.effective_capacity
        s_eff = DiscreteDist(probs[: ceff + 1]) if ceff < len(probs) - 1 else sm.service_dist
        hw = route_report.headway[args.station - 1]
        lam = sm.arrival_rate

        def y_handle(z):
            return y_pgf(z, lam, hw)

        # analyze_route stores the root set of every station with arrivals;
        # without arrivals Y = 1 and the roots are those of z^C = P(z)
        roots = sm.roots or find_all_roots(s_eff.probs, y_handle, ceff, sm.rho).roots
        residuals = np.abs(den_eval(np.asarray(roots, dtype=complex), s_eff, y_handle))
    except (SolverError, RootSearchError, ArithmeticError) as exc:
        _err(str(exc))
        return EXIT_NUMERIC
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
