import cmath
import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from scipy.special import ndtr

import oracles
from transitq import headway, model, solver
from transitq import roots as rootsmod
from transitq.headway import HeadwayModel
from transitq.roots import (
    SolverError,
    find_all_roots,
    root_residuals,
    validate_root_set,
)


def _point_mass_probs(capacity):
    probs = np.zeros(capacity + 1)
    probs[capacity] = 1.0
    return probs


def _unit_y(z):
    return np.ones_like(np.asarray(z, dtype=complex))


def _roots_of_unity(capacity):
    return np.exp(2j * np.pi * np.arange(capacity) / capacity)


# A vehicle-space distribution that hides one conjugate root pair radially
# beneath the main ring (heavy incident truncation upstream).  Captured from
# the ten-station demo line at capacity 34, incident rate 0.2/min, mean
# clearance 2 min, 7-min headway, demand factor 0.6 — sixth station.
STACKED_LAM = 0.6
STACKED_MODEL = HeadwayModel(mu=9.8, sigma=9.797958971132712,
                             zero_mass=0.15860485386386297)
STACKED_RHO = 0.23156932904396732
STACKED_ROOT = 0.04715327897053463 + 0.6697216320325717j
STACKED_S = np.array([
    1.3660042602365474e-24, 1.8594064865367513e-22, 1.2283705984631248e-20,
    5.246384564348835e-19, 1.6281643722531413e-17, 3.912231200110833e-16,
    7.573379361132199e-15, 1.2134371297287798e-13, 1.6406444552310243e-12,
    1.8990332120468088e-11, 1.9025374189772872e-10, 1.6637854866982158e-09,
    1.2784638347281479e-08, 8.67617804674712e-08, 5.220568636017388e-07,
    2.7933063888146427e-06, 1.3317157396616074e-05, 5.66414261809791e-05,
    0.00021503235084812167, 0.0007284975128802881, 0.002200413614429376,
    0.005915720077623712, 0.014121041697525436, 0.029828137314619516,
    0.05551246884651853, 0.09052058135190585, 0.1284280132056965,
    0.1571529285716375, 0.16404800440324965, 0.14409323626122422,
    0.1046927681373246, 0.06160852223710277, 0.028595969758642068,
    0.010016642687311058, 0.00224864660341243,
])


def test_inner_roots_drops_only_the_unit_root():
    inner = oracles.inner_roots((1.0 + 0j, 0.5j, -0.5j))
    assert inner.dtype == complex
    assert list(inner) == [0.5j, -0.5j]


def test_find_all_roots_of_unity_complete():
    C = 9
    jh_y = _unit_y
    rs = find_all_roots(_point_mass_probs(C), jh_y, 0.0)
    assert isinstance(rs, tuple)
    assert len(rs) == C
    expected = _roots_of_unity(C)
    worst = max(np.min(np.abs(expected - z)) for z in rs)
    assert worst < 1e-8


def test_validate_root_set_catches_each_defect():
    C = 6
    probs = _point_mass_probs(C)
    good = tuple(_roots_of_unity(C))
    assert validate_root_set(good, probs, _unit_y) == []

    short = tuple(_roots_of_unity(C)[:4])
    assert any("expected 6 roots" in p for p in validate_root_set(short, probs, _unit_y))

    no_unit = tuple(_roots_of_unity(C) * cmath.exp(0.3j))
    assert any("unit root" in p for p in validate_root_set(no_unit, probs, _unit_y))

    outside = tuple(_roots_of_unity(C) * 1.001)
    assert any("outside" in p for p in validate_root_set(outside, probs, _unit_y))

    arr = _roots_of_unity(C).copy()
    arr[2] = arr[1]
    dup = tuple(arr)
    assert any("coincide" in p for p in validate_root_set(dup, probs, _unit_y))

    arr = _roots_of_unity(C).copy()
    arr[2] = 0.3 + 0.4j  # breaks conjugate pairing (and is no root)
    problems = validate_root_set(tuple(arr), probs, _unit_y)
    assert any("conjugate" in p for p in problems)
    assert any("|J(z)-1| residual" in p for p in problems)
    assert any("|Den(root)|" in p and "exceeds 1e-8" in p for p in problems)

    # a residual that is not a number fails both gates instead of slipping past
    def nan_at_unit(z):
        return np.where(np.abs(z - 1.0) < 1e-9, np.nan, 1.0) + 0j

    problems = validate_root_set(good, probs, nan_at_unit)
    assert any("|J(z)-1| residual nan" in p for p in problems)
    assert any("|Den(root)| = nan" in p for p in problems)


def test_validate_root_set_gates_the_largest_root_residuals():
    # the certificate's two residual figures are the maxima of root_residuals
    C = 6
    probs = _point_mass_probs(C)
    shrunk = _roots_of_unity(C) * (1.0 - 1e-6)
    j_resid, den_resid = root_residuals(shrunk, probs, _unit_y)
    assert j_resid.shape == den_resid.shape == (C,)
    problems = validate_root_set(shrunk, probs, _unit_y)
    assert f"max |J(z)-1| residual {np.max(j_resid):.3e} >= 1e-8" in problems
    assert f"max |Den(root)| = {np.max(den_resid):.3e} exceeds 1e-8" in problems


@pytest.mark.parametrize("C", [34, 250])
def test_validate_root_set_j_gate_at_each_point(C):
    # the J gate takes z^{-C} in log space at every capacity; a Y built to give
    # J = 1 + d exactly must pass the 1e-8 gate at d = 5e-9 and fail it at
    # d = 2e-8, one point at a time, so J is checked to about 1e-9 near 1
    probs = np.zeros(C + 1)
    probs[C] = 0.6
    probs[C - 3] = 0.4
    for z in (0.5 + 0.1j, 0.9 - 0.2j, 0.7 + 0.6j):
        for d, fails in ((5e-9, False), (-5e-9, False), (2e-8, True), (-2e-8, True)):
            def y_with_residual(w, d=d):
                return (1.0 + d) * w**C / np.polyval(probs, w)

            problems = validate_root_set(np.array([z]), probs, y_with_residual)
            assert any("|J(z)-1|" in p for p in problems) == fails, (z, d, problems)


def test_find_all_roots_matches_companion_matrix(reference_report):
    sm = reference_report.stations[1]
    hm = reference_report.headway[1]
    got = np.array(sm.roots)
    expected = oracles.poly_roots_in_disk(sm.service_dist.probs, sm.arrival_rate,
                                          hm, 34)
    assert len(expected) == 34
    worst = max(np.min(np.abs(expected - z)) for z in got)
    assert worst < 1e-6


def test_find_all_roots_ordering_and_validation(reference_report):
    for sm in reference_report.stations:
        if not sm.roots:
            continue
        arr = np.array(sm.roots)
        assert arr[0] == pytest.approx(1.0)
        angles = np.angle(arr[1:]) % (2 * np.pi)
        assert np.all(np.diff(angles) > 0)
        assert np.all(np.abs(arr) <= 1.0 + 1e-8)


def test_stacked_pair_agrees_with_companion_matrix():
    expected = oracles.poly_roots_in_disk(STACKED_S, STACKED_LAM, STACKED_MODEL, 34)
    assert len(expected) == 34
    # companion-matrix accuracy degrades to ~1e-4 in this stiff regime
    assert min(abs(z - STACKED_ROOT) for z in expected) < 1e-3


def test_winding_count_excludes_rescued_case_deficit():
    count = oracles.char_winding(STACKED_S, STACKED_LAM, STACKED_MODEL, 34)
    assert count == pytest.approx(34, abs=1e-6)


# Criterion-4 scenarios (capacity, gamma, theta, headway, demand) on which the
# polar chain spent about a minute each: every Newton start of its
# interpolation passes converged to a root already known, until the radial
# rescue found the last ones.
POLAR_STALL_SCENARIOS = [
    (38, 1.0 / 3.0, 0.5, 4.0, 0.8),
    (38, 0.2, 0.5, 4.0, 1.0),
    (38, 0.1, 0.5, 7.0, 0.8),
    (34, 0.2, 0.5, 7.0, 0.6),
    (34, 1.0 / 3.0, 0.5, 2.0, 1.0),
]


def _grid_scenario(cap, gamma, theta, hbar, demand):
    base = model.reference_scenario(nominal_headway=hbar)
    return dataclasses.replace(
        base, route=dataclasses.replace(base.route, capacity=cap, demand_factor=demand),
        incidents=dataclasses.replace(base.incidents, rate=gamma, duration_rate=theta))


def _station_inputs(rep, idx):
    sm, hw = rep.stations[idx], rep.headway[idx]
    probs = sm.service_dist.probs
    return sm, hw, len(probs) - 1, probs


@pytest.mark.parametrize("row", POLAR_STALL_SCENARIOS)
def test_polar_stall_scenarios_certify(row):
    rep = solver.analyze_route(_grid_scenario(*row))
    solved = 0
    for idx, sm in enumerate(rep.stations):
        if not sm.stable or sm.arrival_rate == 0.0:
            continue
        _, hw, cap, probs = _station_inputs(rep, idx)
        y = partial(headway.y_pgf, lam=sm.arrival_rate, model=hw)
        assert validate_root_set(sm.roots, probs, y) == []
        wind = oracles.char_winding(probs, sm.arrival_rate, hw, cap)
        assert wind == pytest.approx(cap, abs=0.01)
        solved += 1
    assert solved >= 8


def _record_attempts(monkeypatch):
    """Log every attempt made: "plain", or "deflated" when its Newton
    deflates against the roots already pooled."""
    made = []
    polish = rootsmod.newton_polish

    def newton(z, probs, y, known=()):
        made.append("deflated" if len(known) else "plain")
        return polish(z, probs, y, known)

    monkeypatch.setattr(rootsmod, "newton_polish", newton)
    return made


def test_first_attempt_matches_companion_matrix_and_stored_set(reference_report, monkeypatch):
    # the plain attempt alone must find the companion-matrix roots, and the
    # same set that the report's pending roots hold
    sm, hw, cap, probs = _station_inputs(reference_report, 1)
    made = _record_attempts(monkeypatch)
    got = find_all_roots(probs, lambda z: headway.y_pgf(z, sm.arrival_rate, hw), sm.rho)
    assert made == ["plain"]
    expected = oracles.poly_roots_in_disk(probs, sm.arrival_rate, hw, cap)
    assert len(got) == len(expected) == cap
    assert max(np.min(np.abs(expected - z)) for z in got) < 1e-6
    assert np.max(np.abs(np.array(got) - np.array(sm.roots))) < 1e-12


def test_first_attempt_certifies_every_preset_station(monkeypatch):
    made = _record_attempts(monkeypatch)
    solves = 0
    for name in model.PRESETS:
        rep = solver.analyze_route(model.preset(name))
        solves += sum(bool(sm.roots) for sm in rep.stations)
    assert solves > 0
    assert made == ["plain"] * solves


def test_each_preset_root_search_validates_once(monkeypatch):
    # every search of both presets certifies at its first attempt, so it
    # runs the certificate once; a station that needs a second attempt, or
    # a certificate run twice, shows here
    calls = []
    search, validate = solver.find_all_roots, rootsmod.validate_root_set

    def counted_search(*args):
        calls.append(0)
        return search(*args)

    def counted_validate(*args):
        calls[-1] += 1
        return validate(*args)

    monkeypatch.setattr(solver, "find_all_roots", counted_search)
    monkeypatch.setattr(rootsmod, "validate_root_set", counted_validate)
    for name in model.PRESETS:
        for sm in solver.analyze_route(model.preset(name)).stations:
            len(sm.roots)
    assert calls and calls == [1] * len(calls)


@pytest.mark.parametrize("capacity", [34, 300])
def test_space_poly_matches_polyval_on_certified_roots(reference, capacity):
    # the search and the certificate evaluate P(z) with _space_poly; numpy's
    # Horner evaluation is the independent reference.  Near a root P(z)
    # cancels (at C = 300 to 1e-10 of its terms' size), so the gap is
    # measured against sum_u s_u |z|^{C-u}, the size of the terms
    scenario = dataclasses.replace(
        reference, route=dataclasses.replace(reference.route, capacity=capacity))
    checked = 0
    for sm in solver.analyze_route(scenario).stations:
        if not sm.roots:
            continue
        z, probs = np.array(sm.roots), sm.service_dist.probs
        gap = np.abs(rootsmod._space_poly(probs, z)[0] - np.polyval(probs, z))
        assert np.max(gap / np.polyval(probs, np.abs(z))) < 1e-13
        checked += 1
    assert checked


def test_deflation_steers_newton_off_known_roots():
    # z^6 = 1 (Y = 1, all six seats free): from next to z = 1, plain Newton
    # returns to it, and deflated against z = 1 it finds another sixth root
    probs, start = _point_mass_probs(6), [1.02 + 0.01j]
    plain = rootsmod.newton_polish(start, probs, _unit_y)
    assert abs(plain[0] - 1.0) < 1e-12
    deflated = rootsmod.newton_polish(start, probs, _unit_y, known=[1.0])
    gaps = np.abs(_roots_of_unity(6) - deflated[0])
    assert np.argmin(gaps) != 0 and np.min(gaps) < 1e-12


# The criterion-4 routes with a solve (station 6) that the plain attempt does
# not certify: both pool all roots but one conjugate pair, because Newton takes
# every start to a root another start has already found.
DEFLATED_SCENARIOS = [
    (34, 1.0 / 3.0, 0.5, 2.0, 1.0),
    (38, 0.1, 0.5, 7.0, 0.8),
    (38, 1.0 / 3.0, 0.5, 4.0, 0.8),
]


@pytest.mark.parametrize("row", DEFLATED_SCENARIOS)
def test_one_deflated_attempt_certifies_each_stalling_route(row, monkeypatch):
    made = _record_attempts(monkeypatch)
    for sm in solver.analyze_route(_grid_scenario(*row)).stations:
        len(sm.roots)  # raises unless the station's root set certifies
    deflated = [k for k, attempt in enumerate(made) if attempt == "deflated"]
    assert len(deflated) == 1
    k = deflated[0]
    assert made[k - 1:k + 1] == ["plain", "deflated"]


def test_stacked_pair_certifies_without_deflation(monkeypatch):
    made = _record_attempts(monkeypatch)
    y = partial(headway.y_pgf, lam=STACKED_LAM, model=STACKED_MODEL)
    rs = find_all_roots(STACKED_S, y, STACKED_RHO)
    assert made == ["plain"]
    assert validate_root_set(rs, STACKED_S, y) == []
    assert min(abs(z - STACKED_ROOT) for z in rs) < 1e-9


def test_slowly_decaying_batch_certifies_without_deflation(monkeypatch):
    # geometric batches, Y(z) = (1 - q) / (1 - q z) with q = 0.94: the power
    # series of Y keeps 476 terms above 1e-14 and 15.7 arrivals come per
    # headway at C = 40.  Den's zeros are those of z^C (1 - q z) - (1 - q)
    # in the disk.
    cap, q = 40, 0.94

    def y(z):
        return (1.0 - q) / (1.0 - q * np.asarray(z, dtype=complex))

    made = _record_attempts(monkeypatch)
    probs = _point_mass_probs(cap)
    rs = find_all_roots(probs, y, q / (1.0 - q) / cap)
    assert made == ["plain"]
    assert validate_root_set(rs, probs, y) == []
    coeffs = np.zeros(cap + 2)
    coeffs[:2] = -q, 1.0
    coeffs[-1] = -(1.0 - q)
    expected = np.roots(coeffs)
    expected = expected[np.abs(expected) <= 1.0 + 1e-9]
    assert len(expected) == cap
    assert max(np.min(np.abs(expected - z)) for z in rs) < 1e-10


def test_find_all_roots_raises_when_no_stage_certifies(monkeypatch):
    C = 6
    monkeypatch.setattr(rootsmod, "fixed_point_seeds",
                        lambda *a, **k: _roots_of_unity(C)[:3])
    with pytest.raises(SolverError, match="expected 6 roots, have 5") as err:
        find_all_roots(_point_mass_probs(C), _unit_y, 0.0)
    # the last stage validated z = 1 and the seeded roots of unity, each with
    # its conjugate partner, so the count is the set's only problem
    assert str(err.value) == "root set validation failed: expected 6 roots, have 5"


def test_find_all_roots_error_carries_payload(monkeypatch):
    # with no fixed-point seeds the pool is z = 1 alone, and the error's
    # message states that count against the C roots needed
    C = 6
    monkeypatch.setattr(rootsmod, "fixed_point_seeds", lambda *a, **k: np.empty(0))
    with pytest.raises(SolverError) as err:
        find_all_roots(_point_mass_probs(C), _unit_y, 0.0)
    assert type(err.value) is SolverError
    assert "expected 6 roots, have 1" in str(err.value)


@pytest.mark.parametrize("rho", [-0.1, 1.0, math.nan])
def test_find_all_roots_rejects_utilization_outside_unit_interval(rho):
    with pytest.raises(ValueError, match="0 <= rho < 1"):
        find_all_roots(_point_mass_probs(4), _unit_y, rho)


@pytest.mark.parametrize("probs", [[1.0], []])
def test_find_all_roots_rejects_space_pmf_below_capacity_one(probs):
    # C = len(probs) - 1 roots are sought, so a pmf of under two entries has
    # no root set; it is refused before any seed is drawn
    with pytest.raises(ValueError, match="C >= 1"):
        find_all_roots(probs, _unit_y, 0.0)


def test_production_roots_sit_at_newton_fixed_point(reference_report):
    # one more Newton step on Den, with a central-difference slope of Den
    # itself, moves no stored root by more than 1e-14
    h = 1e-6
    worst = 0.0
    for idx, sm in enumerate(reference_report.stations):
        if not sm.roots:
            continue
        _, hw, _, probs = _station_inputs(reference_report, idx)

        def den(z, lam=sm.arrival_rate, hw=hw):
            return oracles.den(z, probs, lam, hw)

        z = np.array(sm.roots)
        step = den(z) / ((den(z + h) - den(z - h)) / (2 * h))
        worst = max(worst, float(np.max(np.abs(step))))
    assert worst <= 1e-14


def test_root_residuals_vanish_on_stored_roots(reference_report):
    # both residuals the certificate gates, root by root, on every stored set;
    # |Den| is the formula's own value
    for idx, sm in enumerate(reference_report.stations):
        if not sm.roots:
            continue
        _, hw, _, probs = _station_inputs(reference_report, idx)
        j_resid, den_resid = root_residuals(
            sm.roots, probs, partial(headway.y_pgf, lam=sm.arrival_rate, model=hw))
        assert np.max(j_resid) < 1e-8
        assert np.max(den_resid) < 1e-8
        np.testing.assert_allclose(
            den_resid, np.abs(oracles.den(sm.roots, probs, sm.arrival_rate, hw)),
            rtol=0, atol=1e-15)
