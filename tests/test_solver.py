import dataclasses
import importlib
import math
import pickle
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import oracles
import transitq
from transitq import headway, model, solver
from transitq import roots as rootsmod
from transitq.solver import (
    DiscreteDist,
    QueueFront,
    SolverError,
    StationSolveError,
    PendingRoots,
    alight,
    analyze_route,
    board,
    normalization_gap,
    point_mass,
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
    mean, c2, c3 = oracles.dist_moments(d)
    assert d.mean == mean
    ks = np.arange(len(arr))
    assert mean == pytest.approx(float(arr @ ks), abs=1e-12)
    assert c2 == pytest.approx(float(arr @ (ks - mean) ** 2), abs=1e-10)
    assert c3 == pytest.approx(float(arr @ (ks - mean) ** 3), abs=1e-9)


# ---------------------------------------------------------------------------
# Alighting / boarding propagation


def _alight_rows(alpha, C, loads=None):
    """The survivor pmf from each load in ``loads`` (default 0..C): matrix rows."""
    return np.array([alight(point_mass(k, C).probs, alpha)
                     for k in (range(C + 1) if loads is None else loads)])


def test_alight_is_binomial():
    C, alpha = 6, 0.3
    rows = _alight_rows(alpha, C)
    assert np.allclose(rows.sum(axis=1), 1.0)
    for load in range(C + 1):
        for stay in range(load + 1):
            # `stay` survivors out of `load`, each leaving independently w.p. alpha
            assert rows[load, stay] == pytest.approx(
                binom.pmf(load - stay, load, alpha), abs=1e-12)
        assert np.all(rows[load, load + 1:] == 0.0)


def test_alight_matches_binomial_pmf():
    rng = np.random.default_rng(5)
    alphas = np.r_[rng.random(40), np.logspace(-12, -1, 12), 1.0 - np.logspace(-12, -1, 12)]
    for C in (1, 2, 13, 34):
        load = np.arange(C + 1)[:, None]
        stay = np.arange(C + 1)[None, :]
        for alpha in alphas:
            want = np.where(stay <= load, binom.pmf(load - stay, load, alpha), 0.0)
            assert np.max(np.abs(_alight_rows(alpha, C) - want)) <= 1e-13
    # scipy itself errs near 1e-13 at tiny alpha; check those against exact rationals
    for alpha in (5e-324, 2.2e-308, 1e-224, 1e-30, 1.0 - 2.0 ** -53):
        rows = _alight_rows(alpha, 34)
        a = Fraction(alpha)
        for load in range(35):
            for stay in range(load + 1):
                exact = math.comb(load, stay) * (1 - a) ** stay * a ** (load - stay)
                assert abs(Fraction(rows[load, stay]) - exact) <= Fraction(1, 10 ** 13)
    np.testing.assert_array_equal(_alight_rows(0.0, 4), np.eye(5))
    np.testing.assert_array_equal(_alight_rows(1.0, 4)[:, 0], np.ones(5))
    for alpha in np.r_[alphas[::4], 5e-324]:
        sums = _alight_rows(alpha, 300, loads=(0, 1, 2, 150, 299, 300)).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_alight_matches_the_written_out_loop_bit_for_bit():
    # the in-place steps must round exactly as the loop written on slices,
    # down to subnormal alpha and loads whose top entries are subnormal
    rng = np.random.default_rng(20)
    for C in (1, 2, 34, 300, 1000):
        dense = rng.random(C + 1)
        sparse = dense * (rng.random(C + 1) < 0.3)
        sparse[0] += 0.1
        subnormal_top = dense / dense.sum()
        subnormal_top[-min(C, 4):] = (5e-324, 2.2e-310, 1e-315, 4e-320)[:min(C, 4)]
        for v in (dense / dense.sum(), sparse / sparse.sum(), subnormal_top,
                  point_mass(C, C).probs):
            for alpha in (0.0, 5e-324, 2.2e-308, 1e-6, 0.25, 0.8, 1.0):
                assert alight(v, alpha).tobytes() == oracles.alight_loop(v, alpha).tobytes(), \
                    (C, alpha)


@pytest.mark.parametrize("C", [1, 2, 13, 34])
def test_alight_and_board_match_the_transition_matrices(C):
    rng = np.random.default_rng(C)
    for _ in range(20):
        v = rng.random(C + 1) * (rng.random(C + 1) < 0.7)
        v[rng.integers(C + 1)] += 0.1
        v /= v.sum()
        alpha = float(rng.choice([0.0, 1.0, 5e-324, rng.random()]))
        np.testing.assert_allclose(alight(v, alpha), v @ oracles.alighting_matrix(alpha, C),
                                   rtol=1e-13, atol=1e-16)
        q = rng.random(C) * rng.uniform(0.0, 1.0) / C
        np.testing.assert_allclose(board(v, q), v @ oracles.boarding_matrix(q, C),
                                   rtol=1e-13, atol=1e-16)


def test_board_small_capacities():
    # C = 1: an empty vehicle takes the one rider unless none was queued
    np.testing.assert_allclose(board(np.array([0.25, 0.75]), np.array([0.6])),
                               [0.25 * 0.6, 0.25 * 0.4 + 0.75], rtol=1e-15)
    g, q = np.array([0.5, 0.3, 0.2]), np.array([0.5, 0.3])
    np.testing.assert_allclose(board(g, q), [0.5 * 0.5, 0.5 * 0.3 + 0.3 * 0.5,
                                             0.5 * 0.2 + 0.3 * 0.5 + 0.2], rtol=1e-15)


def test_board_mass_and_full_vehicle():
    C = 7
    q = np.r_[0.3, 0.2, np.zeros(C - 2)]  # 0.5 mass beyond front
    # empty vehicle: P(load' = j) = q_j for j < C, remainder boards to full
    np.testing.assert_allclose(board(point_mass(0, C).probs, q), np.r_[q, 0.5], rtol=1e-15)
    np.testing.assert_array_equal(board(point_mass(C, C).probs, q), point_mass(C, C).probs)
    for load in range(C + 1):
        out = board(point_mass(load, C).probs, q)
        assert np.all(out >= 0.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)


def test_board_tail_clamp_handles_front_roundoff():
    C = 4
    q = QueueFront(np.array([0.5, 0.5 + 9e-10, 0.0, 0.0])).q  # within the front's tolerance
    for load in range(C + 1):
        out = board(point_mass(load, C).probs, q)
        assert np.all(out >= 0.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)


def test_route_recursion_matches_the_transition_matrices(reference_report):
    # the space pmf reversed is the surviving load; one station's departing
    # load, thinned at the next, is the next station's surviving load
    alphas = model.reference_scenario().route.alight_probs()
    for prev, sm in zip(reference_report.stations, reference_report.stations[1:]):
        g_prev = prev.service_dist.probs[::-1]
        v = g_prev @ oracles.boarding_matrix(prev.queue_front.q, 34)
        want = v @ oracles.alighting_matrix(alphas[sm.station - 1], 34)
        assert np.max(np.abs(sm.service_dist.probs[::-1] - want)) <= 1e-14


# ---------------------------------------------------------------------------
# Stability and root bookkeeping


def test_utilization_values(reference_report):
    for row, sm in zip(REFERENCE_TABLE, reference_report.stations):
        assert sm.rho == pytest.approx(row[1], rel=1e-12)
        assert sm.stable


def test_utilization_degenerate():
    rho, stable = utilization(point_mass(0, 4), headway.ArrivalMoments(1.0, 1.0, 1.0))
    assert math.isinf(rho) and not stable


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
    contour = oracles.queue_front_contour(s, rs, ym, lambda z: headway.y_pgf(z, lam, hm))
    assert np.max(np.abs(direct.q - contour.q)) < 1e-10


def test_queue_front_direct_falls_back_at_full_capacity(reference_report):
    # at C = 34 the 34-factor numerator product accumulates enough imaginary
    # residue to trip the direct route's gate at every station; the
    # root-factored contour front then serves as the reference, and the
    # factorization's front agrees with it to rounding
    sm = reference_report.stations[3]
    hm = reference_report.headway[3]
    with pytest.raises(SolverError, match="imaginary residue"):
        oracles.queue_front(sm.service_dist, sm.roots, sm.arrivals)
    contour = oracles.queue_front_contour(
        sm.service_dist, sm.roots, sm.arrivals,
        lambda z: headway.y_pgf(z, sm.arrival_rate, hm))
    assert np.max(np.abs(contour.q - sm.queue_front.q)) < 1e-14


@pytest.mark.parametrize("capacity", [34, 300])
def test_half_circle_front_matches_full_circle(reference, capacity):
    # the factorization evaluates the upper half circle and relies on
    # conjugate symmetry; the oracle samples and inverts the whole circle of
    # the root-factored queue PGF
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
    with pytest.raises(SolverError, match="does not exceed mean arrivals"):
        oracles.queue_front_contour(sm.service_dist, sm.roots, heavy,
                            lambda z: headway.y_pgf(z, sm.arrival_rate, hm))


def test_queue_front_requires_full_root_set(reference_report):
    sm = reference_report.stations[0]
    hm = reference_report.headway[0]
    with pytest.raises(ValueError, match="non-unit roots"):
        oracles.queue_front_contour(sm.service_dist, sm.roots[:5], sm.arrivals,
                            lambda z: headway.y_pgf(z, sm.arrival_rate, hm))


def test_normalization_gap_is_tiny(reference_report):
    for sm in reference_report.stations:
        if not sm.stable or sm.arrival_rate == 0.0:
            continue
        s_mean = oracles.dist_moments(sm.service_dist)[0]
        gap = normalization_gap(sm.service_dist, sm.queue_front.q,
                                s_mean, sm.arrivals.mean)
        assert abs(gap) < 1e-8


def test_contour_size_bounds_amplification_and_aliasing():
    for cap in (1, 6, 34, 75, 76, 100, 300, 1000):
        radius, points = oracles.contour_size(cap)
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
            assert len(sm.roots) == sm.service_dist.top_index == 300
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


def test_markov_chain_grows_past_its_tail_at_heavy_load():
    # station 1 is overloaded, so vehicles reach station 2 full and half
    # their riders alight there.  At rho = 0.90 the chain's first truncation,
    # K = C + len(pmf) + 40/(1 - load) = 537, leaves 2.1e-5 of the mass in its
    # last 10% of states and reads E[Q] low by 1.3e-4 relative; grown to
    # K = 1810, where that mass is below 1e-14, it matches the solver
    route = model.RouteConfig(stations=(model.StationParams(arrival_rate=20.0, alight_prob=1.0),
                                        model.StationParams(arrival_rate=0.87, alight_prob=0.5)),
                              nominal_headway=6.0, capacity=20)
    rep = analyze_route(model.Scenario(route=route, incidents=model.IncidentParams(
        rate=1.0, duration_rate=0.5), label="full-arrivals"))
    assert not rep.stations[0].stable
    sm, hm = rep.stations[1], rep.headway[1]
    assert sm.rho == pytest.approx(0.90, abs=0.005)
    first = oracles.markov_queue_stationary(sm.service_dist.probs, sm.arrival_rate, hm,
                                            truncate_at=537)
    assert oracles.markov_tail(first) > 1e-5
    assert oracles.pmf_mean_var(first)[0] < sm.eq * (1.0 - 1e-4)
    pi = oracles.markov_queue_stationary(sm.service_dist.probs, sm.arrival_rate, hm)
    assert len(pi) > 1000 and oracles.markov_tail(pi) < oracles.MARKOV_TAIL
    mean, var = oracles.pmf_mean_var(pi)
    assert sm.eq == pytest.approx(mean, rel=1e-9)
    assert sm.varq == pytest.approx(var, rel=1e-9)


def test_queue_moment_forms_cross_validate(reference_report):
    # the root sums in two transcriptions, and the factorization against them
    for sm in reference_report.stations:
        if not sm.roots:
            continue
        probs = sm.service_dist.probs
        ks = np.arange(len(probs))
        s_raw = tuple(float(probs @ ks**p) for p in (1, 2, 3))
        m = sm.arrivals.mean
        y_raw2 = sm.arrivals.central2 + m * m
        y_raw3 = sm.arrivals.central3 + 3.0 * m * y_raw2 - 2.0 * m**3
        eq_a, varq_a = oracles.queue_moments(oracles.dist_moments(sm.service_dist),
                                             sm.arrivals, sm.roots)
        eq_b, varq_b = oracles.queue_moments_raw(s_raw, (m, y_raw2, y_raw3), sm.roots)
        assert eq_a == pytest.approx(eq_b, rel=1e-8)
        assert varq_a == pytest.approx(varq_b, rel=1e-7)
        assert sm.eq == pytest.approx(eq_a, rel=1e-12)
        assert sm.varq == pytest.approx(varq_a, rel=1e-12)


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


def _boom(*args, **kwargs):
    raise SolverError("forced failure")


def test_station_solve_error_carries_station(monkeypatch):
    # a root search that fails surfaces where the root set is read, naming
    # the station whose set it is
    monkeypatch.setattr(solver, "find_all_roots", _boom)
    rep = analyze_route(model.reference_scenario())
    for sm in rep.stations[:9]:
        with pytest.raises(StationSolveError, match=f"station {sm.station}: forced failure") as err:
            len(sm.roots)
        assert (err.value.station, err.value.stage) == (sm.station, "roots")
        assert isinstance(err.value, SolverError)


@pytest.mark.parametrize("stage, target", [("factorization", "factorize"),
                                           ("front", "factor_front"),
                                           ("moments", "factor_moments")])
def test_station_solve_error_names_the_stage(stage, target, monkeypatch):
    monkeypatch.setattr(solver, target, _boom)
    with pytest.raises(StationSolveError, match="station 1: forced failure") as err:
        analyze_route(model.reference_scenario())
    assert (err.value.station, err.value.stage) == (1, stage)


def test_factorization_gives_up_at_its_point_budget(monkeypatch):
    # a capacity so large that even the first circle needs more than the
    # budget ends in a typed error, like one whose every circle fails
    monkeypatch.setattr(solver, "MAX_POINTS", 512)
    with pytest.raises(StationSolveError, match="station 1: no circle of up to 512 points "
                                                "passed: the first circle alone") as err:
        analyze_route(model.reference_scenario())
    assert err.value.stage == "factorization"


def _spy_circles(monkeypatch) -> list:
    """Record (Y, g~, radius, N) of every circle ``factorize`` samples."""
    circles = []
    g_on_circle = solver._g_on_circle

    def spy(probs, y_handle, radius, n_points, x_star):
        circles.append(g_on_circle(probs, y_handle, radius, n_points, x_star)
                       + (radius, n_points))
        return circles[-1][:2]

    monkeypatch.setattr(solver, "_g_on_circle", spy)
    return circles


def test_each_ladder_step_samples_one_circle(monkeypatch, reference):
    # the census reads the winding off the circle whose coefficients are
    # kept, so each of the nine stations with arrivals evaluates one circle;
    # at station 4 that is the first, a = 8
    circles, solves = _spy_circles(monkeypatch), []
    factorize = solver.factorize

    def spy(probs, y_handle):
        circles.clear()
        fact = factorize(probs, y_handle)
        solves.append(([radius for *_, radius, _ in circles], fact))
        return fact

    monkeypatch.setattr(solver, "factorize", spy)
    analyze_route(reference)
    assert len(solves) == 9
    assert all(radii == [fact.radius] for radii, fact in solves)
    fact = solves[3][1]
    assert fact.radius == fact.x_star * (1.0 + 8.0 / (2.0 * 34))


def test_ladder_steps_fail_the_census_then_the_fold_check(monkeypatch):
    # fuzz draw 130, station 1: C = 120, rho = 0.993, x* - 1 = 7.0e-5.  Each
    # budget of points ends the ladder after one more step, so the error
    # names the check that rejected that step's circle: at a = 8 and 4 the
    # circle winds -2 and 4 times, at a = 2 it winds 0 but a folded tail
    # remains, and a = 1 passes both checks
    from test_fuzz import corpus
    rep = analyze_route(corpus()[130])
    sm = rep.stations[0]
    y_handle = partial(headway.y_pgf, lam=sm.arrival_rate, model=rep.headway[0])
    circles = _spy_circles(monkeypatch)
    for budget, problem in ((2048, r"census at a = 8 counts winding -2\.000, not 0"),
                            (4096, r"census at a = 4 counts winding 4\.000, not 0"),
                            (8192, r"fold coefficient 3\.3\d*e-08 above 1e-10 at a = 2")):
        monkeypatch.setattr(solver, "MAX_POINTS", budget)
        with pytest.raises(SolverError, match=problem):
            solver.factorize(sm.service_dist.probs, y_handle)
    monkeypatch.setattr(solver, "MAX_POINTS", 1 << 20)
    circles.clear()
    fact = solver.factorize(sm.service_dist.probs, y_handle)
    assert len(circles) == 4
    assert fact.x_star - 1.0 == pytest.approx(7.0e-5, rel=0.01)
    assert fact.radius == fact.x_star * (1.0 + 1.0 / (2.0 * 120))
    assert solver.factor_moments(fact, sm.arrivals)[0] == pytest.approx(14234.8195, abs=1e-4)
    # what the circles the census rejects would have given
    for (y_vals, g, radius, n_points), eq in zip(circles, (14255.4, 14066.8)):
        coef = np.fft.hfft(np.log(np.abs(g)) + 1j * solver._phase(g), n_points) / n_points
        wrong = solver.Factorization(fact.x_star, radius, coef[:n_points // 2], y_vals)
        assert solver.factor_moments(wrong, sm.arrivals)[0] == pytest.approx(eq, abs=0.05)
    # with no fold check the a = 2 circle, which winds 0, is taken
    monkeypatch.setattr(solver, "FOLD_TOL", math.inf)
    fact = solver.factorize(sm.service_dist.probs, y_handle)
    assert fact.radius == fact.x_star * (1.0 + 2.0 / (2.0 * 120))


def _spy_newton(monkeypatch) -> list:
    """Record the point of every single-point J evaluation, Newton's."""
    points = []
    jump = solver._jump

    def spy(probs, y_handle, x):
        if len(x) == 1:
            points.append(x[0])
        return jump(probs, y_handle, x)

    monkeypatch.setattr(solver, "_jump", spy)
    return points


def test_outer_zero_takes_a_handful_of_newton_steps(monkeypatch, reference_report):
    # reference station 4: Newton reaches x* to the last bit in five
    # evaluations, and a converged iterate that equals the bracket's upper
    # end ends the search instead of starting a bisection from its lower end
    sm = reference_report.stations[3]
    y_handle = partial(headway.y_pgf, lam=sm.arrival_rate, model=reference_report.headway[3])
    points = _spy_newton(monkeypatch)
    fact = solver.factorize(sm.service_dist.probs, y_handle)
    assert fact.x_star > 1.0
    assert len(points) <= 8


def test_x_star_bracket_runs_only_at_stations_with_an_x_star(monkeypatch, reference):
    # one real J at 1 + 8/C rules x* out at seven of the nine stations with
    # arrivals; only stations 4 and 5 make the sixteen-point complex call
    station, bracketed = [0], []
    solve, jump = solver._solve_station, solver._jump

    def solve_spy(n, *args):
        station[0] = n
        return solve(n, *args)

    def jump_spy(probs, y_handle, x):
        if len(x) > 1:
            bracketed.append(station[0])
        return jump(probs, y_handle, x)

    monkeypatch.setattr(solver, "_solve_station", solve_spy)
    monkeypatch.setattr(solver, "_jump", jump_spy)
    analyze_route(reference)
    assert bracketed == [4, 5]


@pytest.mark.parametrize("name", model.PRESETS)
def test_x_star_early_exit_decides_as_the_bracket_does(monkeypatch, name):
    # at every station the factorization solves, the real-axis exit fires
    # exactly where the sixteen-point bracket reads J < 1 at every point
    from test_fuzz import spy_x_star_searches
    searches, _ = spy_x_star_searches(monkeypatch)
    analyze_route(model.preset(name))
    assert len(searches) == 9
    assert all(fired == below for fired, below in searches)
    assert sum(fired for fired, _ in searches) == (7 if name == "reference" else 8)


def test_outer_zero_returns_an_iterate_where_j_is_exactly_one(monkeypatch):
    # C = 1, s = point mass at 1 and Y(x) = (x^2 + 2) / 3 give J(x) = Y(x) / x,
    # which is 1 exactly at the bracket's right end x = 2 (J(1.5) < 1), so
    # the first Newton step is 0 and that point is x*
    points = _spy_newton(monkeypatch)
    x_star = solver._outer_zero(np.array([0.0, 1.0]), lambda x: (x * x + 2.0) / 3.0)
    assert x_star == 2.0
    assert [p.real for p in points] == [2.0]


def test_station_solve_error_on_den_residual(monkeypatch):
    # every attempt's roots land a relative 1e-7 inside Den's true zeros, so
    # no attempt may certify them: the report is whole, and reading the
    # station's root set names the |Den| gate
    polish = rootsmod.newton_polish

    def off_root(z, probs, y_pgf_handle, steps, known=()):
        return polish(z, probs, y_pgf_handle, steps, known) * (1.0 - 1e-7)

    monkeypatch.setattr(rootsmod, "newton_polish", off_root)
    rep = analyze_route(model.reference_scenario())
    with pytest.raises(StationSolveError,
                       match=r"max \|Den\(root\)\| = \S+ exceeds 1e-8") as err:
        rep.stations[0].roots[0]
    assert str(err.value).startswith("station 1: ")
    assert (err.value.station, err.value.stage) == (1, "roots")


def test_root_search_runs_only_when_the_roots_are_read(monkeypatch):
    # no stage of analyze_route needs the roots: with the search failing,
    # both presets still report every station's moments and front
    monkeypatch.setattr(rootsmod, "find_all_roots", _boom)
    monkeypatch.setattr(solver, "find_all_roots", _boom)
    for name in model.PRESETS:
        rep = analyze_route(model.preset(name))
        for sm in rep.stations:
            assert sm.stable and math.isfinite(sm.eq) and math.isfinite(sm.varq)
            assert len(sm.queue_front.q) == sm.service_dist.top_index


def _counted_search(monkeypatch):
    calls = []
    search = solver.find_all_roots

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(solver, "find_all_roots", counted)
    return calls


def test_reading_the_roots_searches_once_per_station(monkeypatch):
    calls = _counted_search(monkeypatch)
    rep = analyze_route(model.reference_scenario())
    assert calls == []
    for n, (sm, hm) in enumerate(zip(rep.stations, rep.headway), start=1):
        if sm.arrival_rate == 0.0:
            assert sm.roots == ()  # no arrivals, no root set
            continue
        first = tuple(sm.roots)
        assert len(sm.roots) == len(first) == 34 and sm.roots == first
        assert len(calls) == n
        want = rootsmod.find_all_roots(
            sm.service_dist.probs, partial(headway.y_pgf, lam=sm.arrival_rate, model=hm),
            sm.rho)
        assert first == want


@pytest.mark.parametrize("read", [
    len, bool, list, repr, hash, lambda r: r[3], lambda r: r[1:4], lambda r: r[-1],
    lambda r: r == tuple(r), lambda r: pickle.loads(pickle.dumps(r))],
    ids=["len", "bool", "iter", "repr", "hash", "index", "slice", "last", "eq", "pickle"])
def test_pending_roots_read_as_the_certified_tuple(read, reference_report, monkeypatch):
    sm, hm = reference_report.stations[3], reference_report.headway[3]
    certified = tuple(sm.roots)
    calls = _counted_search(monkeypatch)
    pending = PendingRoots(sm.station, sm.service_dist.probs, sm.arrival_rate, hm, sm.rho)
    assert calls == []
    assert read(pending) == read(certified)
    assert len(calls) == 1
    assert read(pending) == read(certified) and pending == certified
    assert len(calls) == 1
    assert type(pickle.loads(pickle.dumps(pending))) is tuple


def test_replaced_roots_are_kept_as_given(reference_report):
    # perfbench's self-test builds a wrong input this way
    sm = reference_report.stations[3]
    short = dataclasses.replace(sm, roots=sm.roots[:-1])
    assert type(short.roots) is tuple and len(short.roots) == 33
    assert short.roots == tuple(sm.roots)[:-1]
    assert dataclasses.replace(sm, eq=0.0).roots == sm.roots


def _line(rates, alphas, capacity, headway_min):
    stations = tuple(model.StationParams(arrival_rate=lam, alight_prob=a)
                     for lam, a in zip(rates, alphas))
    route = model.RouteConfig(stations=stations, capacity=capacity,
                              nominal_headway=headway_min)
    return model.Scenario(route=route, incidents=model.IncidentParams(0.0, 1.0))


def test_hundreds_of_arrivals_a_headway_at_capacity_500():
    # z^C / Y(z) overflowed on the root path's contour circle here, and every
    # front entry came out NaN; the factorization divides by no Y.  With no
    # incidents the headway is exactly H, so E[Q] = lam H at station 1 and,
    # behind a vehicle that fills there, at station 2
    rep = analyze_route(_line((60.0, 1.0), (1.0, 0.5), 500, 6.0))
    assert [sm.eq for sm in rep.stations] == pytest.approx([360.0, 6.0], rel=1e-12)
    assert [sm.varq for sm in rep.stations] == pytest.approx([360.0, 6.0], rel=1e-12)


def test_underflowing_arrival_pgf_matches_the_markov_chain():
    # Y(z) underflowed to zero on the root path's contour circle here, which
    # the front could not divide by; the factorization multiplies by Y only
    rep = analyze_route(_line((40.0,), (1.0,), 500, 10.0))
    sm, hm = rep.stations[0], rep.headway[0]
    pi = oracles.markov_queue_stationary(sm.service_dist.probs, sm.arrival_rate, hm,
                                         truncate_at=1500)
    assert oracles.markov_tail(pi) < oracles.MARKOV_TAIL
    mean, var = oracles.pmf_mean_var(pi)
    assert sm.eq == pytest.approx(mean, rel=1e-12) and sm.eq == pytest.approx(400.000003)
    assert sm.varq == pytest.approx(var, rel=1e-9)
    assert np.max(np.abs(pi[:500] - sm.queue_front.q)) < 1e-13


@pytest.mark.parametrize("capacity", [20, 34])
def test_full_vehicles_at_station_2_end_in_a_report_or_a_typed_error(capacity):
    # station 1 is overloaded, so vehicles reach station 2 full and leave half
    # of their riders there; the root search finds 21 of station 2's 34
    # roots at C = 34, but the solve needs none of them
    line = dataclasses.replace(_line((20.0, 1e-3), (1.0, 0.5), capacity, 6.0),
                               incidents=model.IncidentParams(1.0, 0.496))
    rep = analyze_route(line)
    assert not rep.stations[0].stable
    sm, hm = rep.stations[1], rep.headway[1]
    assert sm.stable
    pi = oracles.markov_queue_stationary(sm.service_dist.probs, sm.arrival_rate, hm)
    mean, var = oracles.pmf_mean_var(pi)
    assert sm.eq == pytest.approx(mean, rel=1e-12)
    assert sm.varq == pytest.approx(var, rel=1e-12)
    assert np.max(np.abs(pi[:capacity] - sm.queue_front.q)) < 1e-15
    if capacity == 34:
        assert sm.eq == pytest.approx(0.01036693339, abs=5e-12)
        with pytest.raises(StationSolveError, match="expected 34 roots, have 21") as err:
            len(sm.roots)
        assert (err.value.station, err.value.stage) == (2, "roots")


# A two-station line whose station 2 sees about lam * H = lam / 2 arrivals a
# headway.  The moments round at the scale of C while the true ones shrink
# with lam, so below about lam = 1e-9 they are noise.  Unchecked, they read
# Var[W] = -4.2e7 at 1e-12 and -9.8e17 at 1e-18, and the wait raised a raw
# ZeroDivisionError once (lam / 2)^2 underflowed.
@pytest.mark.parametrize("lam, message", [
    (1e-12, r"Var\[W\] = \S+ below its bound"),
    (1e-18, r"Var\[W\] = \S+ below its bound"),
    (1e-200, "float division by zero")])
def test_near_empty_station_ends_in_a_moments_error(lam, message):
    with pytest.raises(StationSolveError, match="station 2: " + message) as err:
        analyze_route(_line((1.0, lam), (0.0, 1.0), 5, 0.5))
    assert (err.value.station, err.value.stage) == (2, "moments")


@pytest.mark.parametrize("eq, varq, varw", [(0.5 - 1e-6, 1.0, 1.0), (1.0, 0.75 - 1e-6, 1.0),
                                            (1.0, 1.0, -1e-12), (math.nan, 1.0, 1.0)])
def test_check_moments_holds_q_above_its_arrivals(eq, varq, varw):
    y = headway.ArrivalMoments(0.5, 0.75, 1.0)
    solver._check_moments(1.0, 1.0, 1.0, y)
    with pytest.raises(SolverError, match="below its bound"):
        solver._check_moments(eq, varq, varw, y)


def test_exception_hierarchy():
    # one numeric-failure type, defined where the root search raises it and
    # the same object in the solver and the package namespace
    assert solver.SolverError is rootsmod.SolverError is transitq.SolverError
    assert issubclass(StationSolveError, SolverError)
    assert issubclass(SolverError, RuntimeError)
    assert issubclass(model.InvalidScenarioError, ValueError)
    modules = [importlib.import_module(f"transitq.{name}") for name in transitq._SUBMODULES]
    defined = {name for mod in modules for name, obj in vars(mod).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == mod.__name__}
    assert defined == {"InvalidScenarioError", "SolverError", "StationSolveError"}


@pytest.mark.parametrize("exc", [
    SolverError("front failed"),
    StationSolveError(4, "expected 34 roots, have 33", "roots"),
], ids=lambda exc: type(exc).__name__)
def test_errors_survive_pickling(exc):
    # a sweep worker process sends its failure back to the parent pickled;
    # the station and stage must come back intact
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


# ---------------------------------------------------------------------------
# Conservation properties


@given(
    load=st.integers(0, 8),
    alpha=st.floats(0.0, 1.0),
)
@settings(max_examples=30)
def test_alighting_conserves_mass(load, alpha):
    C = 8
    g = alight(point_mass(load, C).probs, alpha)
    assert g.sum() == pytest.approx(1.0, abs=1e-12)
    mean_after = oracles.dist_moments(g)[0]
    assert mean_after == pytest.approx(load * (1.0 - alpha), abs=1e-9)


def test_vehicle_load_recursion_limits(reference_report):
    # with alpha = 1 everywhere at the terminal the final vehicle state is
    # reachable; here just check loads stay inside [0, C] along the line
    for sm in reference_report.stations:
        probs = sm.service_dist.probs
        assert len(probs) == 35
        assert abs(probs.sum() - 1.0) < 1e-9
