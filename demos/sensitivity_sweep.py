"""How queueing responds to incident frequency, duration, and headway.

Sweeps one parameter at a time from the reference scenario and tracks the
mean queue at a lightly and a heavily loaded station.  Also writes the
full per-station reports under demos/output/ in the same CSV format the
command-line `sweep` subcommand produces.
"""

import math
from pathlib import Path

from transitq import model, report, solver

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

base = model.reference_scenario()
WATCH = (2, 4, 8)  # stations to print


def run_sweep(param, values):
    print(f"\n--- sweep {param} (others at reference) ---")
    print("   value | " + " | ".join(f"E[Q{n}]" for n in WATCH) + " | unstable")
    entries = []
    for sc, val in zip(model.expand_grid(base, param, values), values):
        rep = solver.analyze_route(sc)
        cells = []
        for n in WATCH:
            eq = rep.stations[n - 1].eq
            cells.append(f"{eq:6.2f}" if math.isfinite(eq) else "   inf")
        bad = [sm.station for sm in rep.stations if not sm.stable]
        print(f"  {val:6g} | " + " | ".join(cells) + f" | {bad or '-'}")
        fname = f"{param}_{model.value_tag(val)}.csv"
        report.write_route_report(rep, OUT / fname)
        entries.extend(report.sweep_entries(param, val, rep, fname))
    report.write_sweep_index(entries, OUT / f"{param}_index.csv", base.label)


run_sweep("gamma", [0.0, 0.1, 0.2, 1 / 3])
run_sweep("theta", [2.0, 1.0, 0.5])
run_sweep("nominal_headway", [2.0, 4.0, 6.0, 7.0])
run_sweep("demand_factor", [0.2, 0.4, 0.6, 0.8, 1.0])

print(f"\nper-station reports and index files written to {OUT}/")
print("The busy stations feel incidents disproportionately: doubling the mean")
print("suspension time (theta 1 -> 1/2) can push a station over rho = 1 while")
print("quiet stops barely move.")
