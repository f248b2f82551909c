import dataclasses
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import oracles
from transitq import headway, model, solver
from transitq.roots import RootSearchError
from transitq.solver import (
    DiscreteDist,
    FrontPrecisionError,
    QueueFront,
    SolverError,
    StationSolveError,
    UnstableStationError,
    alighting_matrix,
    analyze_route,
    boarding_matrix,
    contour_size,
    den_eval,
    dist_moments,
    normalization_gap,
    point_mass,
    queue_front_contour,
    queue_moments,
    step_alighting,
    trimmed_space,
    utilization,
    wait_moments,
)

# Ten-station demo line, 6-min headway: station, rho, E[Q], Var[Q], E[W], Var[W].
# Regression anchors; the Markov-chain oracle below independently reproduces
# the queue-side numbers from nothing but the transition law.  rho is checked
# to 1e-12 and so pins roots polished to machine precision: root errors near
# 1e-12 upstream move it by about that much.
REFERENCE_TABLE = [
    (1, 0.12706020391784284, 4.320046933211783, 5.759615063177648, 3.8777305636441635, 6.242979047939288),
    (2, 0.2913044038717842, 8.646365994371347, 20.053729678913626, 4.152535493757048, 8.024159344898672),
    (3, 0.1940949338510597, 4.3386049205771045, 8.528077047732573, 4.422180180771085, 9.735160275196668),
    (4, 0.7917815661521749, 26.008301094825264, 288.1332279979932, 8.242449700293628, 41.80366665097073),
    (5, 0.7341177054927, 15.025076525073064, 127.09040449911389, 10.11540229570298, 72.50163911623193),
    (6, 0.211356207400139, 5.883380369883156, 19.432690020394816, 5.116680745366809, 14.383479435342142),
    (7, 0.15895425396265941, 4.4469510450733125, 13.08789788908392, 5.325113746919132, 15.871606930827904),
    (8, 0.12162746577312952, 2.9896329039691807, 7.264850540180802, 5.524952453013419, 17.344186583809638),
    (9, 0.039028670053789516, 1.2058583526974687, 1.9564646001565933, 5.713514696105986, 18.780620358550046),
]


# ---------------------------------------------------------------------------
# Distribution containers


def test_discrete_dist_normalizes_and_freezes():
    d = DiscreteDist(np.array([0.25, 0.25, 0.5000000001]))
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        d.probs[0] = 1.0  # read-only view
    assert d.top_index == 2


def test_discrete_dist_clamps_roundoff_but_rejects_real_negatives():
    d = DiscreteDist(np.array([0.5, -5e-13, 0.5]))
    assert d.probs[1] == 0.0
    with pytest.raises(ValueError, match="below the -1e-12 clamp floor"):
        DiscreteDist(np.array([0.5, -1e-6, 0.5]))
    with pytest.raises(ValueError):
        DiscreteDist(np.array([0.3, 0.3]))  # sum far from one
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteDist(np.array([0.5, bad, 0.5]))


def test_point_mass():
    d = point_mass(3, 5)
    assert d.probs.tolist() == [0, 0, 0, 1, 0, 0]
    assert d.top_index == 5  # largest representable index, not largest support


def test_queue_front_container_guards():
    QueueFront(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        QueueFront(np.array([-0.1, 0.6]))
    with pytest.raises(ValueError):
        QueueFront(np.array([0.8, 0.7]))  # sum over 1 + 1e-9
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            QueueFront(np.array([0.5, bad]))


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30).filter(lambda v: sum(v) > 1e-6))
def test_discrete_dist_moments_match_numpy(values):
    arr = np.array(values) / sum(values)
    d = DiscreteDist(arr)
    mean, c2, c3 = dist_moments(d)
    ks = np.arange(len(arr))
    assert mean == pytest.approx(float(arr @ ks), abs=1e-12)
    assert c2 == pytest.approx(float(arr @ (ks - mean) ** 2), abs=1e-10)
    assert c3 == pytest.approx(float(arr @ (ks - mean) ** 3), abs=1e-9)


# ---------------------------------------------------------------------------
# Alighting / boarding propagation


def test_alighting_matrix_is_binomial():
    C, alpha = 6, 0.3
    mat = alighting_matrix(alpha, C)
    assert mat.shape == (C + 1, C + 1)
    assert np.allclose(mat.sum(axis=1), 1.0)
    for load in range(C + 1):
        for stay in range(load + 1):
            # `stay` survivors out of `load`, each leaving independently w.p. alpha
            assert mat[load, stay] == pytest.approx(
                binom.pmf(load - stay, load, alpha), abs=1e-12)
        assert np.all(mat[load, load + 1:] == 0.0)


def test_alighting_matrix_matches_binomial_pmf():
    rng = np.random.default_rng(5)
    alphas = np.r_[rng.random(40), np.logspace(-12, -1, 12), 1.0 - np.logspace(-12, -1, 12)]
    for C in (1, 2, 13, 34):
        load = np.arange(C + 1)[:, None]
        stay = np.arange(C + 1)[None, :]
        for alpha in alphas:
            want = np.where(stay <= load, binom.pmf(load - stay, load, alpha), 0.0)
            assert np.max(np.abs(alighting_matrix(alpha, C) - want)) <= 1e-13
    # scipy itself errs near 1e-13 at tiny alpha; check those against exact rationals
    for alpha in (5e-324, 2.2e-308, 1e-224, 1e-30, 1.0 - 2.0 ** -53):
        mat = alighting_matrix(alpha, 34)
        a = Fraction(alpha)
        for load in range(35):
            for stay in range(load + 1):
                exact = math.comb(load, stay) * (1 - a) ** stay * a ** (load - stay)
                assert abs(Fraction(mat[load, stay]) - exact) <= Fraction(1, 10 ** 13)
    np.testing.assert_array_equal(alighting_matrix(0.0, 4), np.eye(5))
    np.testing.assert_array_equal(alighting_matrix(1.0, 4)[:, 0], np.ones(5))
    for alpha in np.r_[alphas[::4], 5e-324]:
        rows = alighting_matrix(alpha, 300).sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-12


def test_step_alighting_reverses_for_space():
    C = 5
    v = point_mass(3, C)
    g, s = step_alighting(v, 0.4, C)
    assert g.probs.sum() == pytest.approx(1.0)
    assert np.allclose(s.probs, g.probs[::-1])
    # load 3, each alights w.p. 0.4: survivors Binomial(3, 0.6)
    assert g.probs[2] == pytest.approx(binom.pmf(2, 3, 0.6), abs=1e-12)


def test_boarding_matrix_shape_and_mass():
    C = 7
    front = QueueFront(np.r_[0.3, 0.2, np.zeros(C - 2)])  # 0.5 mass beyond front
    mat = boarding_matrix(front, C)
    assert mat.shape == (C + 1, C + 1)
    assert np.allclose(mat.sum(axis=1), 1.0)
    assert np.all(mat >= 0.0)
    assert mat[C, C] == 1.0  # full vehicle stays full
    # empty vehicle: P(load' = j) = q_j for j < C, remainder boards to full
    assert mat[0, 0] == pytest.approx(0.3)
    assert mat[0, 1] == pytest.approx(0.2)
    assert mat[0, C] == pytest.approx(0.5)


def test_boarding_matrix_tail_clamp_handles_front_roundoff():
    C = 4
    q = np.array([0.5, 0.5 + 9e-10, 0.0, 0.0])  # within the front's tolerance
    mat = boarding_matrix(QueueFront(q), C)
    assert np.all(mat >= 0.0)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Stability and root bookkeeping


def test_utilization_values(reference_report):
    for row, sm in zip(REFERENCE_TABLE, reference_report.stations):
        assert sm.rho == pytest.approx(row[1], rel=1e-12)
        assert sm.stable


def test_utilization_degenerate():
    rho, stable = utilization(point_mass(0, 4), headway.ArrivalMoments(1.0, 1.0, 1.0))
    assert math.isinf(rho) and not stable


def test_den_eval_rejects_zero_pgf(reference_report):
    sm = reference_report.stations[0]
    with pytest.raises(SolverError, match=r"Y\(z\) = 0"):
        den_eval(np.array([0.5 + 0j]), sm.service_dist, lambda z: np.zeros_like(z))


def test_den_eval_vanishes_on_roots(reference_report):
    for sm in reference_report.stations:
        if not sm.roots:
            continue
        hm = reference_report.headway[sm.station - 1]
        vals = den_eval(np.array(sm.roots), sm.service_dist,
                        lambda z, lam=sm.arrival_rate, hm=hm: headway.y_pgf(z, lam, hm))
        assert np.max(np.abs(vals)) < 1e-8


# ---------------------------------------------------------------------------
# Queue front


def test_queue_front_matches_markov_chain(reference_report):
    for n in (1, 2):
        sm = reference_report.stations[n - 1]
        hm = reference_report.headway[n - 1]
        pi = oracles.markov_queue_stationary(sm.service_dist.probs, sm.arrival_rate, hm)
        assert np.max(np.abs(pi[:34] - sm.queue_front.q)) < 1e-10


def test_queue_front_contour_agrees_with_direct():
    # small capacity keeps the triangular route's numerator product clean
    # enough to pass its own residue gate, so both routes are comparable
    from transitq.roots import find_all_roots
    from scipy.special import ndtr

    C, lam = 6, 1.1
    hm = headway.HeadwayModel(mu=4.0, sigma=1.5, zero_mass=float(ndtr(-4.0 / 1.5)))
    s = point_mass(C, C)
    ym = headway.y_moments(lam, hm)
    rs = find_all_roots(s.probs, lambda z: headway.y_pgf(z, lam, hm), ym.mean / C)
    direct = oracles.queue_front(s, rs, ym)
    contour = queue_front_contour(s, rs, ym, lambda z: headway.y_pgf(z, lam, hm))
    assert np.max(np.abs(direct.q - contour.q)) < 1e-10


def test_queue_front_direct_falls_back_at_full_capacity(reference_report):
    # at C = 34 the 34-factor numerator product accumulates enough imaginary
    # residue to trip the direct route's gate at every station; production
    # then serves the contour result, byte-identical to the stored front
    sm = reference_report.stations[3]
    hm = reference_report.headway[3]
    with pytest.raises(FrontPrecisionError):
        oracles.queue_front(sm.service_dist, sm.roots, sm.arrivals)
    contour = queue_front_contour(
        sm.service_dist, sm.roots, sm.arrivals,
        lambda z: headway.y_pgf(z, sm.arrival_rate, hm))
    assert np.max(np.abs(contour.q - sm.queue_front.q)) == 0.0


@pytest.mark.parametrize("capacity", [34, 300])
def test_half_circle_front_matches_full_circle(reference, capacity):
    # production evaluates the upper half circle and relies on conjugate
    # symmetry; the oracle samples and inverts the whole circle
    rep = analyze_route(model.expand_grid(reference, "capacity", [capacity])[0])
    checked = 0
    for sm, hm in zip(rep.stations, rep.headway):
        if not sm.stable or sm.arrival_rate == 0.0:
            continue
        full = oracles.full_circle_front(
            sm.service_dist, sm.roots, sm.arrivals,
            lambda z: headway.y_pgf(z, sm.arrival_rate, hm))
        assert np.max(np.abs(full - sm.queue_front.q)) < 1e-13
        checked += 1
    assert checked >= 5


def test_queue_front_rejects_degenerate_top(reference_report):
    sm = reference_report.stations[0]
    probs = np.zeros(35)
    probs[0] = 1.0 - 1e-13
    probs[34] = 1e-13
    with pytest.raises(ValueError, match="numerically zero"):
        oracles.queue_front(DiscreteDist(probs), sm.roots, sm.arrivals)


def test_queue_front_rejects_unstable_load(reference_report):
    sm = reference_report.stations[0]
    hm = reference_report.headway[0]
    heavy = headway.ArrivalMoments(mean=40.0, central2=40.0, central3=40.0)
    with pytest.raises(UnstableStationError):
        queue_front_contour(sm.service_dist, sm.roots, heavy,
                            lambda z: headway.y_pgf(z, sm.arrival_rate, hm))


def test_queue_front_requires_full_root_set(reference_report):
    sm = reference_report.stations[0]
    hm = reference_report.headway[0]
    with pytest.raises(ValueError, match="non-unit roots"):
        queue_front_contour(sm.service_dist, sm.roots[:5], sm.arrivals,
                            lambda z: headway.y_pgf(z, sm.arrival_rate, hm))


def test_normalization_gap_is_tiny(reference_report):
    for sm in reference_report.stations:
        if not sm.stable or sm.arrival_rate == 0.0:
            continue
        s_mean = dist_moments(sm.service_dist)[0]
        gap = normalization_gap(sm.service_dist, sm.queue_front.q,
                                s_mean, sm.arrivals.mean)
        assert abs(gap) < 1e-8


def test_contour_size_bounds_amplification_and_aliasing():
    for cap in (1, 6, 34, 75, 76, 100, 300, 1000):
        radius, points = contour_size(cap)
        assert radius ** -cap <= 10.0 * (1.0 + 1e-12)
        assert points >= 1024 and points & (points - 1) == 0
        assert points * (1.0 - radius) >= 40.0


def test_reference_line_solves_at_capacity_300():
    # a fixed contour radius of 0.97 amplified the FFT error by 0.97^-300
    # and broke the normalization identity here
    sc = model.expand_grid(model.reference_scenario(), "capacity", [300])[0]
    rep = analyze_route(sc)
    busiest = max((sm.rho, i) for i, sm in enumerate(rep.stations)
                  if sm.stable and sm.arrival_rate > 0.0)[1]
    for sm in rep.stations:
        if sm.stable and sm.arrival_rate > 0.0:
            assert len(sm.roots) == sm.effective_capacity
    sm, hm = rep.stations[busiest], rep.headway[busiest]
    pi = oracles.markov_queue_stationary(sm.service_dist.probs, sm.arrival_rate, hm)
    mean, var = oracles.pmf_mean_var(pi)
    assert sm.eq == pytest.approx(mean, rel=1e-9)
    assert sm.varq == pytest.approx(var, rel=1e-9)
    assert np.max(np.abs(pi[:300] - sm.queue_front.q)) < 1e-10


def test_capacity_300_solve_builds_no_roots_by_points_array():
    # the contour front once multiplied out an (N/2 + 1) x (C - 1) matrix of
    # z - z_i, 4097 x 299 complex entries at C = 300: a 20 MB peak here
    sc = model.expand_grid(model.reference_scenario(), "capacity", [300])[0]
    analyze_route(sc)  # warm imports and caches
    tracemalloc.start()
    try:
        analyze_route(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------------------------------
# Moments


def test_queue_moments_match_markov_chain(reference_report):
    for n in (1, 2):
        sm = reference_report.stations[n - 1]
        hm = reference_report.headway[n - 1]
        pi = oracles.markov_queue_stationary(sm.service_dist.probs, sm.arrival_rate, hm)
        mean, var = oracles.pmf_mean_var(pi)
        assert sm.eq == pytest.approx(mean, abs=1e-9)
        assert sm.varq == pytest.approx(var, abs=1e-9)


def test_queue_moment_forms_cross_validate(reference_report):
    for sm in reference_report.stations:
        if not sm.roots:
            continue
        probs = sm.service_dist.probs
        ks = np.arange(len(probs))
        s_raw = tuple(float(probs @ ks**p) for p in (1, 2, 3))
        m = sm.arrivals.mean
        y_raw2 = sm.arrivals.central2 + m * m
        y_raw3 = sm.arrivals.central3 + 3.0 * m * y_raw2 - 2.0 * m**3
        eq_a, varq_a = queue_moments(dist_moments(sm.service_dist), sm.arrivals, sm.roots)
        eq_b, varq_b = oracles.queue_moments_raw(s_raw, (m, y_raw2, y_raw3), sm.roots)
        assert eq_a == pytest.approx(eq_b, rel=1e-8)
        assert varq_a == pytest.approx(varq_b, rel=1e-7)


def test_wait_moments_requires_arrivals():
    with pytest.raises(ValueError, match="no arrivals"):
        wait_moments(1.0, 1.0, headway.ArrivalMoments(0.0, 0.0, 0.0), 0.0)


def test_reference_route_metrics(reference_report):
    for row, sm in zip(REFERENCE_TABLE, reference_report.stations):
        _, rho, eq, varq, ew, varw = row
        assert sm.rho == pytest.approx(rho, rel=1e-9)
        assert sm.eq == pytest.approx(eq, rel=1e-9)
        assert sm.varq == pytest.approx(varq, rel=1e-9)
        assert sm.ew == pytest.approx(ew, rel=1e-9)
        assert sm.varw == pytest.approx(varw, rel=1e-9)
    last = reference_report.stations[9]
    assert (last.eq, last.varq) == (0.0, 0.0)
    assert math.isnan(last.ew) and math.isnan(last.varw)


def test_terminal_station_front_is_empty_queue(reference_report):
    last = reference_report.stations[9]
    assert last.queue_front.q[0] == 1.0
    assert np.all(last.queue_front.q[1:] == 0.0)
    assert last.arrival_rate == 0.0


def test_station_metrics_bookkeeping(reference_report):
    rep = reference_report
    assert rep.num_stations == 10
    assert rep.label == "reference"
    for sm in rep.stations:
        assert len(sm.queue_front.q) == 34
        assert sm.service_dist is not None
        assert sm.arrivals is not None
    assert len(rep.headway) == 10


def test_unstable_station_sentinel():
    sc = model.reference_scenario()
    sc = dataclasses.replace(sc, incidents=model.IncidentParams(1 / 3, 1.0))
    rep = analyze_route(sc)
    s5 = rep.stations[4]
    assert not s5.stable
    assert s5.rho > 1.0
    assert all(math.isinf(v) for v in (s5.eq, s5.varq, s5.ew, s5.varw))
    assert np.all(s5.queue_front.q == 0.0)
    assert s5.roots == ()
    # downstream stations keep solving behind a full vehicle
    s6 = rep.stations[5]
    assert s6.stable and math.isfinite(s6.eq)
    assert rep.stations[3].eq == pytest.approx(95.458, abs=0.01)


def test_analyze_route_rejects_invalid():
    sc = model.reference_scenario()
    sc = dataclasses.replace(sc, route=dataclasses.replace(sc.route, capacity=0))
    with pytest.raises(model.InvalidScenarioError):
        analyze_route(sc)


def test_station_solve_error_carries_station(monkeypatch):
    from transitq import roots as rootsmod

    def boom(*args, **kwargs):
        raise rootsmod.RootSearchError("forced failure", found=3, needed=34)

    monkeypatch.setattr(solver, "find_all_roots", boom)
    with pytest.raises(StationSolveError, match="station 1: forced failure") as err:
        analyze_route(model.reference_scenario())
    assert err.value.station == 1
    assert isinstance(err.value, SolverError)


def test_station_solve_error_on_den_residual(monkeypatch):
    # every attempt's roots land a relative 1e-7 inside Den's true zeros, so
    # no attempt may certify them: the station fails before its queue front
    # is solved, naming the |Den| gate
    from transitq import roots as rootsmod
    polish = rootsmod.newton_polish

    def off_root(z, probs, y_pgf_handle, steps):
        return polish(z, probs, y_pgf_handle, steps) * (1.0 - 1e-7)

    monkeypatch.setattr(rootsmod, "newton_polish", off_root)
    with pytest.raises(StationSolveError,
                       match=r"max \|Den\(root\)\| = \S+ exceeds 1e-8") as err:
        analyze_route(model.reference_scenario())
    assert str(err.value).startswith("station 1: ")
    assert err.value.station == 1


def _line(rates, alphas, capacity, headway_min):
    stations = tuple(model.StationParams(arrival_rate=lam, alight_prob=a)
                     for lam, a in zip(rates, alphas))
    route = model.RouteConfig(stations=stations, capacity=capacity,
                              nominal_headway=headway_min)
    return model.Scenario(route=route, incidents=model.IncidentParams(0.0, 1.0))


def test_station_solve_error_on_non_finite_front():
    # at C = 500 and 360 arrivals a headway, z^C / Y(z) overflows on the
    # contour circle and every front entry comes out NaN; the diagnostics
    # must stop the station instead of passing the NaNs downstream
    with pytest.raises(StationSolveError, match="not finite") as err:
        analyze_route(_line((60.0, 1.0), (1.0, 0.5), 500, 6.0))
    assert err.value.station == 1


def test_station_solve_error_on_zero_pgf_on_the_contour():
    # Y underflows to zero on the contour circle: den_eval's error reaches
    # the caller tagged with the station, like every other solver failure
    with pytest.raises(StationSolveError, match=r"station 1: Y\(z\) = 0") as err:
        analyze_route(_line((40.0,), (1.0,), 500, 10.0))
    assert err.value.station == 1


def test_exception_hierarchy():
    assert issubclass(UnstableStationError, SolverError)
    assert issubclass(FrontPrecisionError, SolverError)
    assert issubclass(StationSolveError, SolverError)
    assert issubclass(SolverError, RuntimeError)


@pytest.mark.parametrize("exc", [
    SolverError("front failed"),
    UnstableStationError("rho >= 1"),
    FrontPrecisionError("normalization gap 1e-3"),
    StationSolveError(4, "expected 34 roots, have 33"),
    RootSearchError("expected 6 roots, have 2", found=2, needed=6,
                    roots=(1.0 + 0j, 0.5 - 0.25j)),
], ids=lambda exc: type(exc).__name__)
def test_errors_survive_pickling(exc):
    # a sweep worker process sends its failure back to the parent pickled;
    # the attributes (station, found/needed/roots) must come back intact
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_trimmed_space_cuts_at_effective_capacity():
    full = DiscreteDist([0.25, 0.5, 0.25])
    assert trimmed_space(full) is full
    cut = trimmed_space(DiscreteDist([0.5, 0.5, 1e-13, 0.0]))
    assert list(cut.probs) == [0.5, 0.5]
    assert cut.top_index == solver._effective_capacity(np.array([0.5, 0.5, 1e-13, 0.0]))


# ---------------------------------------------------------------------------
# Conservation properties


@given(
    load=st.integers(0, 8),
    alpha=st.floats(0.0, 1.0),
)
@settings(max_examples=30)
def test_alighting_conserves_mass(load, alpha):
    C = 8
    g, s = step_alighting(point_mass(load, C), alpha, C)
    assert g.probs.sum() == pytest.approx(1.0, abs=1e-12)
    mean_after = dist_moments(g)[0]
    assert mean_after == pytest.approx(load * (1.0 - alpha), abs=1e-9)


def test_vehicle_load_recursion_limits(reference_report):
    # with alpha = 1 everywhere at the terminal the final vehicle state is
    # reachable; here just check loads stay inside [0, C] along the line
    for sm in reference_report.stations:
        probs = sm.service_dist.probs
        assert len(probs) == 35
        assert abs(probs.sum() - 1.0) < 1e-9
