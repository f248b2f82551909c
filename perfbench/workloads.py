"""The three workloads: their inputs, one round of timed operations, and checks.

A round is a fixed list of operations run one after another from a single
process (a closed loop with one caller).  The seed fixes the order of the
operations within each round and, in ``simulate``, the simulation seed; it
never changes which operations run, so every round attempts the same work.
"""

from __future__ import annotations

import dataclasses
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

PRESETS = ("reference", "reference-h4")
ROOTS_STATION = 4
WARM_REPEATS = 3              # warm analyze_route calls per preset per round
COLD_REPEATS = 2              # cold CLI analyze calls per preset per round
SWEEP_VALUES = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SWEEP_JOBS = 2

# (capacity, gamma, theta, nominal_headway, demand_factor): every value of the
# criterion-4 grid appears at least twice; none of the five stalling
# scenarios is among them
GRID_SLICE = (
    (30, 0.0, 2.0, 2.0, 0.2), (34, 0.1, 1.0, 4.0, 0.4), (38, 0.2, 0.5, 7.0, 0.6),
    (30, 1.0 / 3.0, 1.0, 7.0, 0.8), (34, 0.0, 0.5, 2.0, 1.0), (38, 0.1, 2.0, 4.0, 1.0),
    (30, 0.2, 2.0, 4.0, 0.6), (34, 1.0 / 3.0, 0.5, 4.0, 0.2), (38, 0.0, 1.0, 7.0, 0.4),
    (34, 0.2, 1.0, 2.0, 0.8), (38, 1.0 / 3.0, 2.0, 2.0, 0.6), (30, 0.1, 0.5, 7.0, 0.4),
)
LADDER = (100, 200, 300)      # capacities of the reference line; 300 fails in the contour front
MARKOV_SLICE = (0, 3)         # slice routes whose busiest station gets a Markov solve
SLICE_REPEATS = 2             # warm analyze_route calls per slice route per round
CLI_SLICE = 0                 # the slice route also analyzed through cold CLI calls
CLI_SLICE_REPEATS = SLICE_REPEATS  # one cold call per pass over the slice

SIM_VEHICLES = 50_000
CLI_SIM_VEHICLES = 1_000
CLI_SIM_REPEATS = 3
CLI_TIMEOUT = 150.0


@dataclasses.dataclass
class Op:
    key: str                  # the operation's identity within a round
    kind: str                 # what it times, e.g. "cli_analyze"
    seconds: float            # wall time
    ok: bool
    value: object = None      # output kept for the checks
    error: str = ""


class Task:
    """One timed operation; ``prepare`` and ``collect`` run outside the timer."""

    def __init__(self, key, kind, run, prepare=None, collect=None):
        self.key, self.kind, self.run = key, kind, run
        self.prepare, self.collect = prepare, collect

    def execute(self) -> Op:
        if self.prepare:
            self.prepare()
        start = time.perf_counter()
        try:
            value = self.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            return Op(self.key, self.kind, time.perf_counter() - start, False,
                      error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if self.collect:
            value = self.collect(value)
        return Op(self.key, self.kind, seconds, True, value)


class CliFailed(RuntimeError):
    pass


class Context:
    """Paths, the subprocess environment and, in a traced run, the tracer."""

    def __init__(self, root: Path, run_dir: Path, env: dict):
        self.root, self.run_dir, self.env = root, run_dir, env
        self.tracer = None
        self.op = 0

    def cli(self, args: list[str]) -> str:
        """Run ``transitq`` in a fresh interpreter; returns its stdout."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "transitq.cli", *args]
        else:
            spans = self.run_dir / f"spans-{self.op}.json"
            cmd = [sys.executable, str(self.root / "perfbench" / "tracedcli.py"),
                   str(spans), *args]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT)
        if self.tracer is not None and spans.exists():
            self.tracer.merge(spans, self.op)
            spans.unlink()
        if proc.returncode != 0:
            raise CliFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout


def grid_scenario(model, cap, gamma, theta, headway, demand):
    base = model.reference_scenario(nominal_headway=headway)
    return dataclasses.replace(
        base, label=f"C{cap} g{gamma:.4g} t{theta:g} H{headway:g} d{demand:g}",
        route=dataclasses.replace(base.route, capacity=cap, demand_factor=demand),
        incidents=dataclasses.replace(base.incidents, rate=gamma, duration_rate=theta))


def digest(value) -> str:
    """A text that is equal for equal outputs (NaN included)."""
    if hasattr(value, "stations") and hasattr(value, "headway"):
        return repr([(s.rho, s.eq, s.varq, s.ew, s.varw, s.roots) for s in value.stations])
    if hasattr(value, "stations"):
        return repr([dataclasses.astuple(s) for s in value.stations])
    if hasattr(value, "rows"):
        return repr([dataclasses.astuple(r) for r in value.rows])
    return repr(value)


class Workload:
    name = ""

    def __init__(self, ctx: Context, seed: int):
        from transitq import model, simulator, solver
        self.ctx, self.seed = ctx, seed
        self.model, self.solver, self.simulator = model, solver, simulator
        self.rng = random.Random(seed)

    def tasks(self) -> list[Task]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Warm-process work the rounds need that is not a workload input."""

    def order(self, tasks: list[Task]) -> list[Task]:
        self.rng.shuffle(tasks)
        return tasks

    def round(self) -> list[Op]:
        tasks = self.order(self.tasks())
        ops = []
        for task in tasks:
            self.ctx.op += 1
            if self.ctx.tracer is not None:
                self.ctx.tracer.op = self.ctx.op
            ops.append(task.execute())
        return ops

    def check(self, first: list[Op]) -> tuple[list[str], list[str]]:
        """(problems, notes) for the outputs of one round."""
        raise NotImplementedError

    # kinds timed by the workload's cold-CLI and warm-call metrics
    cold_kind = warm_kind = ""
    detail_kinds: dict[str, str] = {}

    def metrics(self, rounds: list[list[Op]]) -> dict[str, float]:
        """Mean seconds of one cold CLI call and of one warm call.

        Means over every repeat in the run, not medians or minima: on a host
        whose speed drifts they spread least from run to run (see README).
        """
        return {"cold_cli_s": _mean(_times(rounds, self.cold_kind)),
                "warm_call_s": _mean(_times(rounds, self.warm_kind))}

    def detail(self, rounds: list[list[Op]]) -> dict[str, float]:
        """Per-operation medians under the names the documentation uses."""
        return detail_times(rounds, self.detail_kinds)

    def _analyze(self, scenario):
        return lambda: self.solver.analyze_route(scenario)


def _times(rounds, kind) -> list[float]:
    return [op.seconds for ops in rounds for op in ops if op.kind == kind and op.ok]


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _mean(values) -> float:
    return statistics.fmean(values) if values else math.nan


def round_seconds(ops) -> float:
    """The time of one round: the sum of its operation times."""
    return sum(op.seconds for op in ops)


def detail_times(rounds, kinds: dict[str, str]) -> dict[str, float]:
    """Median wall seconds per kind of operation, under the documented names."""
    return {name: _median(_times(rounds, kind)) for name, kind in kinds.items()}


def _station_checks(where, report, y_pgf, markov_at=()) -> list[str]:
    out = []
    for sm, hw in zip(report.stations, report.headway):
        out += checks.station_problems(f"{where} st{sm.station}", sm, hw, y_pgf)
    for idx in markov_at:
        if idx is not None:
            sm = report.stations[idx]
            out += checks.markov_problems(f"{where} st{sm.station}", sm,
                                          report.headway[idx])
    return out


# ---------------------------------------------------------------------------


class Presets(Workload):
    """The shipped presets as a user meets them: cold CLI calls and warm calls."""

    name = "presets"
    cold_kind, warm_kind = "cli_analyze", "analyze_route"
    detail_kinds = {"cli_analyze_s": "cli_analyze", "cli_roots_s": "cli_roots",
                    "sweep_serial_s": "sweep_serial", "sweep_parallel_s": "sweep_parallel",
                    "analyze_route_s": "analyze_route"}

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.scenarios = {p: self.model.preset(p) for p in PRESETS}
        self.sweep_dirs = {jobs: ctx.run_dir / f"sweep-jobs{jobs}" for jobs in (1, SWEEP_JOBS)}

    def _sweep(self, jobs):
        out = self.sweep_dirs[jobs]
        args = ["sweep", "--config", "reference", "--param", "demand_factor",
                "--values", ",".join(f"{v:g}" for v in SWEEP_VALUES),
                "--out", str(out), "--jobs", str(jobs)]
        return Task(f"sweep:jobs{jobs}", "sweep_serial" if jobs == 1 else "sweep_parallel",
                    lambda: self.ctx.cli(args),
                    prepare=lambda: shutil.rmtree(out, ignore_errors=True),
                    collect=lambda _: (out / "index.csv").read_text(encoding="utf-8"))

    def tasks(self):
        tasks = [Task(f"cli_analyze:{p}#{i}", "cli_analyze",
                      lambda p=p: self.ctx.cli(["analyze", "--config", p, "--format", "json"]))
                 for p in PRESETS for i in range(COLD_REPEATS)]
        tasks.append(Task("cli_roots", "cli_roots", lambda: self.ctx.cli(
            ["roots", "--config", "reference", "--station", str(ROOTS_STATION)])))
        tasks += [self._sweep(1), self._sweep(SWEEP_JOBS)]
        tasks += [Task(f"analyze_route:{p}#{i}", "analyze_route", self._analyze(sc))
                  for p, sc in self.scenarios.items() for i in range(WARM_REPEATS)]
        return tasks

    def check(self, first):
        from transitq.headway import y_pgf
        by_key = {op.key: op.value for op in first if op.ok}
        out = []
        reports = {p: by_key.get(f"analyze_route:{p}#0") for p in PRESETS}
        for p, rep in reports.items():
            if rep is None:
                continue
            out += _station_checks(p, rep, y_pgf, [checks.markov_station(rep)])
            for i in range(COLD_REPEATS):
                text = by_key.get(f"cli_analyze:{p}#{i}")
                if text is not None:
                    out += checks.analyze_json_problems(f"cli analyze {p}", text, rep)
        ref = reports["reference"]
        if ref is not None and "cli_roots" in by_key:
            out += checks.roots_csv_problems("cli roots", by_key["cli_roots"],
                                             ref.stations[ROOTS_STATION - 1])
        for jobs in (1, SWEEP_JOBS):
            text = by_key.get(f"sweep:jobs{jobs}")
            if text is not None and ref is not None:
                out += checks.sweep_index_problems(f"sweep --jobs {jobs}", text,
                                                   list(SWEEP_VALUES), ref.num_stations,
                                                   anchor=(0.8, ref))
        if by_key.get("sweep:jobs1") != by_key.get(f"sweep:jobs{SWEEP_JOBS}"):
            out.append("sweep index differs between --jobs 1 and --jobs 2")
        return out, []



class Grid(Workload):
    """A listed slice of the criterion-4 grid plus a capacity ladder, warm."""

    name = "grid"
    cold_kind, warm_kind = "cli_analyze", "grid_slice"
    detail_kinds = {"grid_route_s": "grid_slice",
                    "cli_analyze_slice_s": "cli_analyze"}

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.slice = [grid_scenario(self.model, *row) for row in GRID_SLICE]
        self.ladder = self.model.expand_grid(self.model.preset("reference"), "capacity",
                                             LADDER)
        self.cli_config = ctx.run_dir / f"grid-slice{CLI_SLICE}.json"
        self.model.save_scenario(self.slice[CLI_SLICE], self.cli_config)

    def tasks(self):
        tasks = [Task(f"slice:{i}#{r}", "grid_slice", self._analyze(sc))
                 for i, sc in enumerate(self.slice) for r in range(SLICE_REPEATS)]
        tasks += [Task(f"ladder:C{cap}", f"grid_c{cap}", self._analyze(sc))
                  for cap, sc in zip(LADDER, self.ladder)]
        tasks += [Task(f"cli_analyze:slice{CLI_SLICE}#{r}", "cli_analyze",
                       lambda: self.ctx.cli(["analyze", "--config", str(self.cli_config),
                                             "--format", "json"]))
                  for r in range(CLI_SLICE_REPEATS)]
        return tasks

    def order(self, tasks):
        # the ladder runs mid-round in ascending capacity: its large
        # temporaries set the peak memory, which would otherwise depend on
        # what ran before them.  The two passes over the slice sit on either
        # side of it, so the repeats of a route span the round.
        ladder = [t for t in tasks if t.key.startswith("ladder:")]
        passes = [super(Grid, self).order([t for t in tasks if t.key.endswith(f"#{r}")])
                  for r in range(SLICE_REPEATS)]
        return passes[0] + ladder + [t for p in passes[1:] for t in p]

    def check(self, first):
        from transitq.headway import y_pgf
        by_key = {op.key: op.value for op in first if op.ok}
        out = []
        for i, sc in enumerate(self.slice):
            rep = by_key.get(f"slice:{i}#0")
            if rep is not None:
                markov = [checks.markov_station(rep)] if i in MARKOV_SLICE else []
                out += _station_checks(sc.label, rep, y_pgf, markov)
        for cap in LADDER:
            rep = by_key.get(f"ladder:C{cap}")
            if rep is not None:
                out += _station_checks(f"reference C{cap}", rep, y_pgf,
                                       [checks.markov_station(rep)])
        rep = by_key.get(f"slice:{CLI_SLICE}#0")
        for r in range(CLI_SLICE_REPEATS):
            text = by_key.get(f"cli_analyze:slice{CLI_SLICE}#{r}")
            if text is not None and rep is not None:
                out += checks.analyze_json_problems(
                    f"cli analyze {self.slice[CLI_SLICE].label}", text, rep)
        for i in range(len(self.slice)):
            for r in range(1, SLICE_REPEATS):
                again = by_key.get(f"slice:{i}#{r}")
                if again is not None and digest(again) != digest(by_key.get(f"slice:{i}#0")):
                    out.append(f"{self.slice[i].label}: repeat {r} differs from the first call")
        return out, []

    def detail(self, rounds):
        out = super().detail(rounds)
        out["grid_slice_s"] = _mean(_times(rounds, "grid_slice")) * len(self.slice)
        for cap in LADDER:  # the failing rung is timed up to its failure
            out[f"grid_c{cap}_s"] = _median([op.seconds for ops in rounds for op in ops
                                             if op.kind == f"grid_c{cap}"])
        return out


class Simulate(Workload):
    """One 50k-vehicle simulation of the reference line, compared to theory."""

    name = "simulate"
    cold_kind, warm_kind = "cli_simulate", "simulate"
    detail_kinds = {"simulate_s": "simulate", "compare_s": "compare",
                    "cli_simulate_1k_s": "cli_simulate"}

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.scenario = self.model.preset("reference")
        self.config = self.simulator.SimConfig(runs=SIM_VEHICLES, seed=seed)
        self.cli_config = self.simulator.SimConfig(runs=CLI_SIM_VEHICLES, seed=seed)
        self.theory = None

    def prepare(self):
        # the closed form that compare() and the checks hold the simulation to
        self.theory = self.solver.analyze_route(self.scenario)

    def tasks(self):
        sim = {}

        def simulate():
            sim["stats"] = self.simulator.run_simulation(self.scenario, self.config)
            return sim["stats"]

        def compare():
            return self.simulator.compare(self.theory, sim["stats"])

        return [
            Task("simulate", "simulate", simulate),
            Task("compare", "compare", compare),
        ] + [
            Task(f"cli_simulate#{r}", "cli_simulate", lambda: self.ctx.cli(
                ["simulate", "--config", "reference", "--runs", str(CLI_SIM_VEHICLES),
                 "--seed", str(self.seed), "--format", "json"]))
            for r in range(CLI_SIM_REPEATS)
        ]

    def order(self, tasks):
        # the comparison reads this round's simulation, so it follows it
        tasks = super().order(tasks)
        compare = next(t for t in tasks if t.key == "compare")
        tasks.remove(compare)
        tasks.insert(next(i for i, t in enumerate(tasks) if t.key == "simulate") + 1, compare)
        return tasks

    def check(self, first):
        from transitq.headway import truncated_headway_moments
        by_key = {op.key: op.value for op in first if op.ok}
        out, notes = [], []
        stats = by_key.get("simulate")
        if stats is not None:
            out, notes = checks.simulation_problems("simulate", self.theory, stats,
                                                    truncated_headway_moments)
        table = by_key.get("compare")
        if table is not None and len(table.rows) != self.theory.num_stations:
            out.append("compare: one row per station expected")
        small = self.simulator.run_simulation(self.scenario, self.cli_config)
        for r in range(CLI_SIM_REPEATS):
            text = by_key.get(f"cli_simulate#{r}")
            if text is not None:
                out += checks.sim_json_problems("cli simulate", text, small)
        return out, notes



WORKLOADS = {w.name: w for w in (Presets, Grid, Simulate)}
