"""Span tracer that wraps the program's public functions from outside.

Each wrapper replaces a module attribute under the name its caller looks it
up by (``solver.find_all_roots``, not only ``roots.find_all_roots``), so calls
made inside the package are seen too.  A span records name, start, end,
parent span and the id of the benchmark operation it belongs to; spans stay
in memory until the run ends.  A target that the package no longer has is
reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

import numpy as np

# span name -> the (module, attribute) pairs it is looked up under
TARGETS = {
    "model.validate": [("transitq.model", "validate")],
    "headway.y_pgf": [("transitq.solver", "y_pgf"), ("transitq.cli", "y_pgf")],
    "roots.find_all_roots": [("transitq.solver", "find_all_roots"),
                             ("transitq.cli", "find_all_roots")],
    "roots.interpolation_search": [("transitq.roots", "interpolation_search")],
    "roots.solve_from_initial": [("transitq.roots", "solve_from_initial")],
    "solver.analyze_route": [("transitq.solver", "analyze_route"),
                             ("transitq.cli", "analyze_route")],
    "solver.alighting_matrix": [("transitq.solver", "alighting_matrix")],
    "solver.boarding_matrix": [("transitq.solver", "boarding_matrix")],
    "solver.den_eval": [("transitq.solver", "den_eval"), ("transitq.cli", "den_eval")],
    "solver.queue_front": [("transitq.solver", "queue_front")],
    "solver.queue_front_contour": [("transitq.solver", "queue_front_contour")],
    "solver.queue_moments": [("transitq.solver", "queue_moments")],
    "simulator.run_simulation": [("transitq.simulator", "run_simulation"),
                                 ("transitq.cli", "run_simulation")],
    "simulator.compare": [("transitq.simulator", "compare")],
    "report.route_report_to_json": [("transitq.report", "route_report_to_json")],
    "report.write_route_report": [("transitq.report", "write_route_report")],
    "cli.cmd_analyze": [("transitq.cli", "cmd_analyze")],
    "cli.cmd_roots": [("transitq.cli", "cmd_roots")],
    "cli.cmd_sweep": [("transitq.cli", "cmd_sweep")],
    "cli.cmd_simulate": [("transitq.cli", "cmd_simulate")],
}


def _y_points(args, kwargs, result):
    return int(np.size(args[0] if args else kwargs.get("z")))


def _roots_found(args, kwargs, result):
    return len(result)


def _vehicle_station_steps(args, kwargs, result):
    return int(result.runs) * len(result.stations)


# per-span-name counters fed from a call's arguments and result
COUNTERS = {
    "headway.y_pgf": ("points", _y_points),
    "roots.find_all_roots": ("roots_returned", _roots_found),
    "simulator.run_simulation": ("vehicle_station_steps", _vehicle_station_steps),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, name, start, end, parent, op)
        self.errors: Counter = Counter()  # (name, exception class) -> count
        self.counts: Counter = Counter()  # (name, counter) -> total
        self.absent: set[str] = set()
        self.op = 0
        self._stack: list[int] = []
        self._next = 0
        self._installed: list[tuple] = []

    def install(self) -> None:
        """Wrap every target the package still has; note the ones it lacks."""
        for name, places in TARGETS.items():
            found = False
            for mod_name, attr in places:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    continue
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                found = True
                self._installed.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
            if not found:
                self.absent.add(name)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op))
            if counter is not None:
                self.counts[(name, counter[0])] += counter[1](args, kwargs, result)
            return result

        return wrapper

    # -- spans recorded in another process --------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "errors": [[n, e, c] for (n, e), c in self.errors.items()],
                       "counts": [[n, k, c] for (n, k), c in self.counts.items()],
                       "absent": sorted(self.absent)}, fh)

    def merge(self, path, op: int) -> None:
        """Fold a dumped child trace in, renumbering its span ids."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        base = self._next
        top = -1
        for sid, name, start, end, parent, _ in doc["spans"]:
            self.spans.append((base + sid, name, start, end,
                               base + parent if parent >= 0 else -1, op))
            top = max(top, sid)
        self._next = base + top + 1
        for name, exc, count in doc["errors"]:
            self.errors[(name, exc)] += count
        for name, key, count in doc["counts"]:
            self.counts[(name, key)] += count

    # -- summaries ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration less the durations of its direct
        children, which run inside it one after another.
        """
        child_time: Counter = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _, _ in self.spans:
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child_time[sid]
        return out
