"""A fixed, seeded corpus of scenarios across the working range.

The corpus is drawn once from ``numpy.random.default_rng(3)``: 400 routes of
1-7 stations with the capacity, demand, alighting, headway and incident
ranges below.  Every draw must end in a report (whose factorization passed
its census and fold check at every station, and whose queue fronts and
moments passed theirs) or in a ``StationSolveError`` that names one of the
route's stations.  A report no longer carries a searched root set, so the
root sets are read as well: a draw counts as root-certified when the set of
every station with arrivals certifies (count, |J - 1| and |Den| residuals)
or names its station in the error.  Neither count may fall below its floor.
The corpus is solved once, counting the Newton evaluations of each station's
x* search, which must stay a handful, and checking that each search ends at
one real-axis J exactly where the sixteen-point bracket reads no x*.
"""

import numpy as np
import pytest

from transitq import model, solver

SEED = 3
DRAWS = 400
CAPACITIES = (1, 2, 3, 5, 10, 34, 60, 120, 250, 400)
ALPHAS = (0.0, 5e-324, 2.2e-308, 1e-6, 0.05, 0.2, 0.5, 0.9, 1.0)
HEADWAYS = (0.5, 1.0, 2.0, 4.0, 6.0, 10.0, 20.0)
GAMMAS = (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0)

# draws that give a report, as measured when the factorization became the
# station solve; and draws whose every root set certifies when read, as the
# root path counted its reports before.  The second floor is knife-edge:
# draws 177 and 372 (both C = 250) certify with a largest |J - 1| of 9.7e-9
# and 9.6e-9, within 4% of the 1e-8 gate, so a change at rounding level
# anywhere upstream of the root search can move this count.
CERTIFIED = 400
ROOTS_CERTIFIED = 363
# the most single-point J evaluations one x* search may take: the largest is
# 14, against 48 when a converged Newton iterate still started a bisection
NEWTON_CAP = 20


def corpus() -> list[model.Scenario]:
    rng = np.random.default_rng(SEED)
    out = []
    for k in range(DRAWS):
        stations = tuple(
            model.StationParams(
                arrival_rate=0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 15.0)),
                alight_prob=float(rng.choice(ALPHAS)))
            for _ in range(int(rng.integers(1, 8))))
        route = model.RouteConfig(stations=stations,
                                  nominal_headway=float(rng.choice(HEADWAYS)),
                                  capacity=int(rng.choice(CAPACITIES)))
        incidents = model.IncidentParams(rate=float(rng.choice(GAMMAS)),
                                         duration_rate=float(10.0 ** rng.uniform(-3.0, 3.0)))
        out.append(model.Scenario(route=route, incidents=incidents, label=f"fuzz{k}"))
    return out


def _station_error(sc, exc, stage=None):
    assert 1 <= exc.station <= sc.route.num_stations, (sc.label, str(exc))
    assert str(exc).startswith(f"station {exc.station}: "), (sc.label, str(exc))
    assert stage is None or exc.stage == stage, (sc.label, exc.stage)


def spy_x_star_searches(mp) -> tuple[list[tuple[bool, bool]], list[int]]:
    """Record, for every x* search, whether it ended at its one real-axis J
    and whether the sixteen-point complex bracket reads J < 1 at all its
    points; and, for every search that takes the bracket, the only kind to
    make a multi-point ``_jump`` call, the single-point calls that follow
    it, Newton's."""
    searches, bracketed, newton = [], [], []
    jump, outer_zero = solver._jump, solver._outer_zero

    def jump_spy(probs, y_handle, x):
        if len(x) > 1:
            bracketed.append(True)
            newton.append(0)
        else:
            newton[-1] += 1
        return jump(probs, y_handle, x)

    def outer_zero_spy(probs, y_handle):
        bracketed.clear()
        x_star = outer_zero(probs, y_handle)
        grid = 1.0 + (8.0 / (len(probs) - 1)) * np.arange(1, 17) / 16.0
        searches.append((not bracketed, bool(np.all(jump(probs, y_handle, grid).real < 1.0))))
        return x_star

    mp.setattr(solver, "_jump", jump_spy)
    mp.setattr(solver, "_outer_zero", outer_zero_spy)
    return searches, newton


@pytest.fixture(scope="module")
def solved():
    """Each draw with its report or StationSolveError; the Newton
    evaluations of every x* search that took the bracket; and what
    ``spy_x_star_searches`` records of every search."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        searches, newton = spy_x_star_searches(mp)
        for sc in corpus():
            try:
                out.append((sc, solver.analyze_route(sc)))
            except solver.StationSolveError as exc:
                out.append((sc, exc))
    return out, newton, searches


def test_corpus_ends_in_a_report_or_a_station_error(solved, record_testsuite_property):
    certified = roots_certified = 0
    for sc, rep in solved[0]:
        if isinstance(rep, solver.StationSolveError):
            _station_error(sc, rep)
            continue
        assert rep.num_stations == sc.route.num_stations
        certified += 1
        try:
            for sm in rep.stations:
                len(sm.roots)
        except solver.StationSolveError as exc:
            _station_error(sc, exc, "roots")
            continue
        roots_certified += 1
    # the JUnit XML carries the counts, so a CI summary can show them and
    # not only whether they reached their floors
    record_testsuite_property(
        "fuzz_certified", f"{certified} of {DRAWS} reports (floor {CERTIFIED}); "
        f"{roots_certified} of {DRAWS} root sets (floor {ROOTS_CERTIFIED})")
    assert certified >= CERTIFIED
    assert roots_certified >= ROOTS_CERTIFIED


def test_corpus_x_star_searches_take_a_handful_of_newton_steps(solved, record_testsuite_property):
    newton = solved[1]
    found = sum(1 for n in newton if n)
    record_testsuite_property(
        "fuzz_newton", f"{sum(newton)} Newton evaluations over {found} x* searches; "
        f"at most {max(newton)} at one station (cap {NEWTON_CAP})")
    assert max(newton) <= NEWTON_CAP


def test_corpus_x_star_is_ruled_out_by_one_real_j_where_the_bracket_would_be(
        solved, record_testsuite_property):
    searches = solved[2]
    ended = sum(fired for fired, _ in searches)
    record_testsuite_property(
        "fuzz_bracket", f"{ended} of {len(searches)} x* searches ended at one real-axis J; "
        f"{len(searches) - ended} took the bracket")
    assert all(fired == below for fired, below in searches)
