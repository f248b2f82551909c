"""Benchmark of transitq: the presets, a slice of the criterion-4 grid, the simulator.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload {presets,grid,simulate} --seed N \
        --seconds S --trace {0,1}

The program under test is the tree's own ``src/transitq``, imported with
``src`` on the path and started as ``python -m transitq.cli``.  Each run sets
up, repeats whole rounds of the workload for about ``--seconds`` seconds,
checks the outputs of the first round in full and those of every later round
against the first, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from spans taken around the package's public functions.  The line
before it carries the per-operation figures and the run's notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = HERE / "_runs"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                     if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(workload: str, seed: int, ctx) -> float:
    """Wall time of a fresh interpreter that imports transitq and builds the
    workload's inputs."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed),
                    str(ctx.run_dir)], cwd=ROOT, env=ctx.env, check=True, timeout=120)
    return time.perf_counter() - start


def import_seconds(env: dict) -> dict[str, float]:
    """Cumulative import time of transitq and scipy.stats from ``-X importtime``."""
    samples: dict[str, list[float]] = {"transitq": [], "scipy.stats": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import transitq"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in samples:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(vals) for name, vals in samples.items()}


def measure(workload, seconds: float) -> list:
    """Whole rounds until the next would likely end past ``seconds``; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.round())
        spent = time.perf_counter() - start
        if spent + spent / len(rounds) > seconds:
            return rounds


def trace_rounds(workload, ctx, tracer, seconds: float) -> tuple[list, list]:
    """Alternate untraced and traced rounds; at least one of each.

    The spans come from the traced rounds only; comparing the two kinds of
    round gives the tracing overhead.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        traced_now = len(plain) > len(traced)
        if traced_now:
            tracer.install()
            ctx.tracer = tracer
        try:
            ops = workload.round()
        finally:
            if traced_now:
                ctx.tracer = None
                tracer.uninstall()
        (traced if traced_now else plain).append(ops)
        spent = time.perf_counter() - start
        if traced and spent + spent / (len(plain) + len(traced)) > seconds:
            return plain, traced


def check_rounds(workload, rounds) -> tuple[list[str], list[str]]:
    """Full checks on round one; every later round must give the same outputs."""
    first = rounds[0]
    problems, notes = workload.check(first)
    want = {op.key: workloads.digest(op.value) for op in first if op.ok}
    for number, ops in enumerate(rounds[1:], start=2):
        for op in ops:
            if op.ok and op.key in want and workloads.digest(op.value) != want[op.key]:
                problems.append(f"round {number}: {op.key} output differs from round 1")
    return problems, notes


def layer_metrics(tracer, traced_rounds: int, overhead_pct: float,
                  imports: dict[str, float]) -> dict[str, tuple[float, str]]:
    tot = tracer.totals()
    n = float(traced_rounds)

    def per_round(name, field="s"):
        return tot.get(name, {}).get(field, 0.0) / n

    def count(name, key):
        return tracer.counts.get((name, key), 0)

    starts = tot.get("roots.solve_from_initial", {}).get("calls", 0)
    sim_s = tot.get("simulator.run_simulation", {}).get("s", 0.0)
    rejected = sum(c for (name, exc), c in tracer.errors.items()
                   if name == "solver.queue_front" and exc == "FrontPrecisionError")
    return {
        "import.transitq.s": (imports["transitq"], "s"),
        "import.scipy.stats.s": (imports["scipy.stats"], "s"),
        "model.validate.s": (per_round("model.validate"), "s"),
        "headway.y_pgf.calls": (per_round("headway.y_pgf", "calls"), "count"),
        "headway.y_pgf.points": (count("headway.y_pgf", "points") / n, "count"),
        "headway.y_pgf.s": (per_round("headway.y_pgf"), "s"),
        "roots.find_all_roots.s": (per_round("roots.find_all_roots"), "s"),
        "roots.solve_from_initial.calls": (starts / n, "count"),
        "roots.interpolation_search.calls": (
            per_round("roots.interpolation_search", "calls"), "count"),
        "roots.roots_per_start": (
            count("roots.find_all_roots", "roots_returned") / starts if starts else 0.0,
            "ratio"),
        "solver.alighting_matrix.s": (per_round("solver.alighting_matrix"), "s"),
        "solver.queue_front.calls": (per_round("solver.queue_front", "calls"), "count"),
        "solver.queue_front.rejected": (rejected / n, "count"),
        "solver.queue_front_contour.s": (per_round("solver.queue_front_contour"), "s"),
        "solver.boarding_matrix.s": (per_round("solver.boarding_matrix"), "s"),
        "solver.den_eval.s": (per_round("solver.den_eval"), "s"),
        "solver.queue_moments.s": (per_round("solver.queue_moments"), "s"),
        "simulator.run_simulation.s": (per_round("simulator.run_simulation"), "s"),
        "simulator.vehicle_station_steps_per_s": (
            count("simulator.run_simulation", "vehicle_station_steps") / sim_s
            if sim_s else 0.0, "1/s"),
        "simulator.compare.s": (per_round("simulator.compare"), "s"),
        "report.route_report_to_json.s": (per_round("report.route_report_to_json"), "s"),
        "report.write_route_report.s": (per_round("report.write_route_report"), "s"),
        "cli.cmd_analyze.self_s": (per_round("cli.cmd_analyze", "self_s"), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def machine() -> dict:
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    env = _env()
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = RUNS_DIR / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        ctx = workloads.Context(ROOT, run_dir, env)
        # set-up is sampled before and after the rounds, so that its median
        # does not rest on one moment of a host whose speed drifts
        setups = [] if args.trace else [setup_seconds(args.workload, args.seed, ctx)
                                        for _ in range(SETUP_SAMPLES // 2 + 1)]
        workload = workloads.WORKLOADS[args.workload](ctx, args.seed)
        workload.prepare()
        detail: dict = {"workload": args.workload, "seed": args.seed,
                        "machine": machine()}
        if args.trace:
            tracer = Tracer()
            plain, traced = trace_rounds(workload, ctx, tracer, args.seconds)
            rounds = plain + traced
            overhead = (statistics.median(map(workloads.round_seconds, traced))
                        / statistics.median(map(workloads.round_seconds, plain))
                        - 1.0) * 100.0
            metrics = layer_metrics(tracer, len(traced), overhead, import_seconds(env))
            detail["absent"] = sorted(tracer.absent)
            detail["layer_self_s"] = {name: rec["self_s"] / len(traced)
                                      for name, rec in sorted(tracer.totals().items())}
        else:
            rounds = measure(workload, float(args.seconds))
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups += [setup_seconds(args.workload, args.seed, ctx)
                       for _ in range(SETUP_SAMPLES // 2)]
            metrics = {"setup_s": (statistics.median(setups), "s"),
                       "peak_rss_mb": (peak_mb, "MB")}
            metrics.update({k: (v, "s") for k, v in workload.metrics(rounds).items()})
            metrics["round_s"] = (statistics.median(map(workloads.round_seconds, rounds)), "s")
            detail["per_operation"] = {name: {"value": value, "unit": "s"}
                                       for name, value in workload.detail(rounds).items()}
        problems, notes = check_rounds(workload, rounds)
        ops = [op for round_ops in rounds for op in round_ops]
        failures = sorted({f"{op.key}: {op.error}" for op in ops if not op.ok})
        detail.update(rounds=len(rounds), notes=notes, problems=problems,
                      failures=failures)
        record_ops = [[number, op.key, op.seconds, op.ok]
                      for number, round_ops in enumerate(rounds, start=1) for op in round_ops]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in problems + failures:
        print(line, file=sys.stderr)
    result = {"correct": not problems, "attempted": len(ops),
              "failed": sum(not op.ok for op in ops),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "detail": detail, "operations": record_ops},
                                 indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("presets", "grid", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "transitq" / "__init__.py").is_file():
        print(f"error: no transitq package under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
