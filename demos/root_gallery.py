"""A look inside the root finder.

The paper fixes the queue front at each station by the in-disk zeros of
Den(z) = z^C / Y(z) - sum_u s_u z^(C-u).  ``analyze_route`` solves the
station without them, by a Wiener-Hopf factorization, and keeps each
station's root set pending: the search runs, and certifies the set, when
``sm.roots`` is first read, as it is here.  This script prints the root
ring for a reference station with the two residuals of each root that the
certificate gates, |J - 1| and |Den| (``root_residuals``), and then walks a
heavy-truncation scenario whose roots stack radially — a buried conjugate
pair that an angular sweep along the ring cannot see, but that the
fixed-point iteration reaches from its ray.  Every set printed
here passed ``validate_root_set``: exactly C roots, z = 1 among them, all
in the closed disk, distinct, conjugate-closed, with |J - 1| and |Den|
below 1e-8 at each.  The argument-principle census that counts Den's zeros
independently of the search runs in the test suite (acceptance criterion 4),
not here.
"""

import cmath
import dataclasses

import numpy as np

from transitq import model, solver
from transitq.headway import y_pgf
from transitq.roots import find_all_roots, root_residuals

# --- the reference ring -----------------------------------------------------

scenario = model.reference_scenario()
rep = solver.analyze_route(scenario)
sm = rep.stations[1]          # station 2, the busier of the early stops
hw = rep.headway[1]

roots = np.asarray(sm.roots)  # the first read runs the search
j_resid, den_resid = root_residuals(roots, sm.service_dist.probs,
                                    lambda z: y_pgf(z, sm.arrival_rate, hw))
print(f"station 2: {len(roots)} roots for capacity {scenario.route.capacity}")
print("      radius     phase/pi    |J - 1|   |Den|")
for z in sorted(roots, key=lambda w: cmath.phase(w) % (2 * cmath.pi)):
    k = np.argmin(np.abs(roots - z))
    print(f"   {abs(z):9.6f} {cmath.phase(z) / cmath.pi:11.6f}   "
          f"{j_resid[k]:.1e}   {den_resid[k]:.1e}")
print("The ring hugs the unit circle; z = 1 is always a member, and complex")
print("roots come in conjugate pairs because the coefficients are real.\n")

# --- degenerate sanity: no arrivals => roots of unity ------------------------

cap = 8
unity = find_all_roots(solver.point_mass(cap, cap).probs,
                       lambda z: y_pgf(z, 0.0, hw), 0.0)
gap = max(abs(z - np.exp(2j * np.pi * round(cmath.phase(z) * cap / (2 * np.pi)) / cap))
          for z in unity)
print(f"lambda = 0, fixed batch {cap}: roots are the {cap}th roots of unity "
      f"(max gap {gap:.1e})\n")

# --- the stacked case --------------------------------------------------------

# Long suspensions + tight capacity push two roots radially beneath the main
# ring, where an angular sweep cannot see them.  The search does not sweep:
# each root solves z = w (s(z) Y(z))^(1/C) for a root of unity w, and the
# iteration started on w's ray seeds Newton inside the buried pair's basin.
sc2 = model.reference_scenario(nominal_headway=7.0)
sc2 = dataclasses.replace(
    sc2,
    route=dataclasses.replace(sc2.route, capacity=34, demand_factor=0.6),
    incidents=model.IncidentParams(rate=0.2, duration_rate=0.5),
    label="stacked")
rep2 = solver.analyze_route(sc2)
sm2 = rep2.stations[5]
ring = sorted(abs(z) for z in sm2.roots)
print(f"heavy-truncation line, station 6: {len(sm2.roots)} roots recovered")
print(f"  radial spread: {ring[0]:.3f} (innermost) .. {ring[-2]:.3f} "
      f"(outermost below z=1)")
pair = sorted(sm2.roots, key=abs)[:2]
print(f"  the buried conjugate pair: {pair[0]:.4f} and {pair[1]:.4f} "
      f"(radius {abs(pair[0]):.3f}, next root at {ring[2]:.3f})")
print("Drop those two and a front built from the roots would come out wrong with no warning —")
print("which is why no set is accepted unless it holds exactly C distinct roots,")
print("each with |J - 1| and |Den| below 1e-8.")
