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
The corpus is solved once, counting the float J evaluations of each
station's x* search, which must stay a handful, and checking each search
against the complex route of ``oracles.outer_zero``: it ends at one
real-axis J exactly where the oracle's sixteen points read no x*, and
otherwise agrees with its complex-step Newton to 1e-14.
"""

import numpy as np
import pytest

import oracles
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
# the most float J evaluations one x* search may take, its exit and binary
# search included: the largest is 13, against 55 for a secant on J - 1 that
# bisected once it reached J's rounding floor
EVALUATION_CAP = 20


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


def spy_x_star_searches(mp) -> list[tuple[float, int, float]]:
    """Record, for every x* search, the x* it returns, the float J
    evaluations it makes (one ``y_handle`` call each) and the x* of
    ``oracles.outer_zero``, the complex route."""
    searches = []
    outer_zero = solver._outer_zero

    def outer_zero_spy(probs, y_handle):
        evaluations = []

        def counted(x):
            evaluations.append(x)
            return y_handle(x)

        x_star = outer_zero(probs, counted)
        searches.append((x_star, len(evaluations), oracles.outer_zero(probs, y_handle)))
        return x_star

    mp.setattr(solver, "_outer_zero", outer_zero_spy)
    return searches


@pytest.fixture(scope="module")
def solved():
    """Each draw with its report or StationSolveError, and what
    ``spy_x_star_searches`` records of every x* search."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        searches = spy_x_star_searches(mp)
        for sc in corpus():
            try:
                out.append((sc, solver.analyze_route(sc)))
            except solver.StationSolveError as exc:
                out.append((sc, exc))
    return out, searches


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


def test_corpus_x_star_searches_take_a_handful_of_j_evaluations(solved,
                                                               record_testsuite_property):
    evaluations = [n for _, n, _ in solved[1]]
    record_testsuite_property(
        "fuzz_x_star_evaluations", f"{sum(evaluations)} float J evaluations over "
        f"{len(evaluations)} x* searches; at most {max(evaluations)} in one "
        f"(cap {EVALUATION_CAP})")
    assert max(evaluations) <= EVALUATION_CAP


def test_corpus_x_star_is_ruled_out_by_one_real_j_where_the_bracket_would_be(
        solved, record_testsuite_property):
    searches = solved[1]
    ended = sum(n == 1 for _, n, _ in searches)
    record_testsuite_property(
        "fuzz_x_star_exit", f"{ended} of {len(searches)} x* searches ended at the "
        f"real-axis exit; {len(searches) - ended} searched on")
    assert all((n == 1) == (x_star == 0.0) == (oracle == 0.0)
               for x_star, n, oracle in searches)


def test_corpus_x_star_matches_the_complex_step_newton(solved):
    found = [(x_star, oracle) for x_star, _, oracle in solved[1] if oracle]
    assert len(found) == 65
    assert all(abs(x_star - oracle) <= 1e-14 * oracle for x_star, oracle in found)
