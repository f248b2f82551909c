"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each check must accept a right output and reject a deliberately wrong one:
a perturbed E[Q], a root set with one root removed, a queue front off its
normalization identity, a CLI report that disagrees with the in-process one,
a root dump or sweep index missing a row, a sweep whose E[Q] falls with
demand, and simulator statistics outside the gates.  Exits 1 if any case
goes the wrong way.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from transitq import model, report, solver  # noqa: E402
from transitq.headway import truncated_headway_moments, y_pgf  # noqa: E402
from transitq.simulator import SimConfig, SimStats, run_simulation  # noqa: E402


def cases():
    rep = solver.analyze_route(model.preset("reference"))
    idx = checks.markov_station(rep)
    sm, hw = rep.stations[idx], rep.headway[idx]
    where = f"station {sm.station}"

    yield "station: right", checks.station_problems(where, sm, hw, y_pgf), False
    yield "station: one root removed", checks.station_problems(
        where, dataclasses.replace(sm, roots=sm.roots[:-1]), hw, y_pgf), True
    q = np.array(sm.queue_front.q)
    q[0] += 1e-6
    yield "station: front off normalization", checks.station_problems(
        where, dataclasses.replace(sm, queue_front=types.SimpleNamespace(q=q)), hw,
        y_pgf), True
    yield "station: front mass above one", checks.station_problems(
        where, dataclasses.replace(sm, queue_front=types.SimpleNamespace(q=q + 0.2)), hw,
        y_pgf), True

    yield "markov: right", checks.markov_problems(where, sm, hw), False
    yield "markov: E[Q] perturbed", checks.markov_problems(
        where, dataclasses.replace(sm, eq=sm.eq * (1 + 1e-4)), hw), True
    yield "markov: Var[Q] perturbed", checks.markov_problems(
        where, dataclasses.replace(sm, varq=sm.varq * (1 + 1e-4)), hw), True

    doc = report.route_report_to_json(rep)
    yield "cli analyze: right", checks.analyze_json_problems(
        "analyze", json.dumps(doc), rep), False
    doc["stations"][1]["e_queue"] *= 1 + 1e-6
    yield "cli analyze: E[Q] perturbed", checks.analyze_json_problems(
        "analyze", json.dumps(doc), rep), True
    yield "cli analyze: not JSON", checks.analyze_json_problems("analyze", "oops", rep), True

    sm4 = rep.stations[3]
    text = report.roots_to_csv(sm4.roots, [1e-12] * len(sm4.roots), rep.label)
    yield "cli roots: right", checks.roots_csv_problems("roots", text, sm4), False
    lines = text.splitlines()
    yield "cli roots: one row removed", checks.roots_csv_problems(
        "roots", "\n".join(lines[:-1]) + "\n", sm4), True
    yield "cli roots: a root moved", checks.roots_csv_problems(
        "roots", text.replace(lines[-1].split(",")[0], "0.123", 1), sm4), True

    values = [0.7, 0.8]
    entries = []
    for value, sc in zip(values, model.expand_grid(model.preset("reference"),
                                                   "demand_factor", values)):
        entries += report.sweep_entries("demand_factor", value, solver.analyze_route(sc),
                                        f"demand_factor_{value:g}.csv")
    index = report.sweep_index_to_csv(entries, "reference")
    n_sta = rep.num_stations
    yield "sweep: right", checks.sweep_index_problems(
        "sweep", index, values, n_sta, anchor=(0.8, rep)), False
    rows = index.splitlines()
    yield "sweep: index missing a row", checks.sweep_index_problems(
        "sweep", "\n".join(rows[:-1]) + "\n", values, n_sta), True
    falling = [dict(e) for e in entries]
    for low, high in zip(falling[:n_sta], falling[n_sta:]):
        low["e_queue"], high["e_queue"] = high["e_queue"], low["e_queue"]
    yield "sweep: E[Q] falls with demand", checks.sweep_index_problems(
        "sweep", report.sweep_index_to_csv(falling, "reference"), values, n_sta), True
    shifted = [dict(e) for e in entries]
    shifted[n_sta + 1]["e_queue"] *= 1.01
    yield "sweep: value off the in-process report", checks.sweep_index_problems(
        "sweep", report.sweep_index_to_csv(shifted, "reference"), values, n_sta,
        anchor=(0.8, rep)), True

    small = run_simulation(model.preset("reference"), SimConfig(runs=200, seed=3))
    sim_doc = report.sim_stats_to_json(small)
    yield "cli simulate: right", checks.sim_json_problems(
        "simulate", json.dumps(sim_doc), small), False
    sim_doc["stations"][0]["e_queue_sim"] += 0.01
    yield "cli simulate: E[Q] perturbed", checks.sim_json_problems(
        "simulate", json.dumps(sim_doc), small), True

    def ideal(**changes):
        """Simulator statistics that sit exactly on the closed forms."""
        stations = []
        for s, h in zip(rep.stations, rep.headway):
            mean, var, _ = truncated_headway_moments(h)
            st = types.SimpleNamespace(
                station=s.station, q_mean=s.eq, w_mean=s.ew, headway_mean=mean,
                headway_var=var, boarded=0 if s.arrival_rate == 0 else 1000)
            for key, (station, value) in changes.items():
                if s.station == station:
                    setattr(st, key, value(st))
            stations.append(st)
        return SimStats(label=rep.label, runs=50_000, seed=0, warmup=0.1,
                        stations=tuple(stations))

    def sim_problems(stats):
        return checks.simulation_problems("sim", rep, stats, truncated_headway_moments)[0]

    yield "simulation: right", sim_problems(ideal()), False
    yield "simulation: busy station off, only noted", sim_problems(
        ideal(q_mean=(4, lambda st: st.q_mean * 0.7))), False
    yield "simulation: E[Q] 10% off where rho < 0.5", sim_problems(
        ideal(q_mean=(2, lambda st: st.q_mean * 1.1))), True
    yield "simulation: E[W] 10% off where rho < 0.5", sim_problems(
        ideal(w_mean=(2, lambda st: st.w_mean * 1.1))), True
    yield "simulation: headway mean 2% off", sim_problems(
        ideal(headway_mean=(6, lambda st: st.headway_mean * 1.02))), True
    yield "simulation: headway variance 20% off", sim_problems(
        ideal(headway_var=(6, lambda st: st.headway_var * 0.8))), True
    yield "simulation: last station boards", sim_problems(
        ideal(boarded=(n_sta, lambda st: 5))), True

    class Stub:
        def check(self, first):
            return [], []

    def op(value):
        return types.SimpleNamespace(key="k", ok=True, value=value)

    yield "rounds: repeat the first", run.check_rounds(
        Stub(), [[op(rep)], [op(rep)]])[0], False
    other = dataclasses.replace(rep, stations=(dataclasses.replace(
        rep.stations[0], eq=rep.stations[0].eq + 1e-9),) + rep.stations[1:])
    yield "rounds: a later round differs", run.check_rounds(
        Stub(), [[op(rep)], [op(other)]])[0], True


def main() -> int:
    wrong = 0
    for name, problems, should_reject in cases():
        ok = bool(problems) == should_reject
        wrong += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
    print(f"{wrong} of the cases went the wrong way")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
