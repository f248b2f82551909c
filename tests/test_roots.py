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
    RootSearchError,
    find_all_roots,
    inner_roots,
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
    inner = inner_roots((1.0 + 0j, 0.5j, -0.5j))
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
    ceff = sm.effective_capacity
    probs = sm.service_dist.probs[: ceff + 1]
    probs = probs / probs.sum()
    return sm, hw, ceff, probs


@pytest.mark.parametrize("row", POLAR_STALL_SCENARIOS)
def test_polar_stall_scenarios_certify(row):
    rep = solver.analyze_route(_grid_scenario(*row))
    solved = 0
    for idx, sm in enumerate(rep.stations):
        if not sm.stable or sm.arrival_rate == 0.0:
            continue
        _, hw, ceff, probs = _station_inputs(rep, idx)
        y = partial(headway.y_pgf, lam=sm.arrival_rate, model=hw)
        assert validate_root_set(sm.roots, probs, y) == []
        wind = oracles.char_winding(probs, sm.arrival_rate, hw, ceff)
        assert wind == pytest.approx(ceff, abs=0.01)
        solved += 1
    assert solved >= 8


def test_eigen_stage_completes_when_fixed_point_seeds_nothing(reference_report, monkeypatch):
    expected = find_all_roots(STACKED_S, lambda z: headway.y_pgf(z, STACKED_LAM, STACKED_MODEL),
                              STACKED_RHO)
    monkeypatch.setattr(rootsmod, "fixed_point_seeds", lambda *a, **k: np.empty(0))
    got = find_all_roots(STACKED_S, lambda z: headway.y_pgf(z, STACKED_LAM, STACKED_MODEL),
                         STACKED_RHO)
    assert min(abs(z - STACKED_ROOT) for z in got) < 1e-9
    assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-12
    for idx in (0, 3, 8):
        sm, hw, ceff, probs = _station_inputs(reference_report, idx)
        rs = find_all_roots(probs, lambda z: headway.y_pgf(z, sm.arrival_rate, hw),
                            sm.rho)
        assert np.max(np.abs(np.array(rs) - np.array(sm.roots))) < 1e-12


def _record_budgets(monkeypatch):
    """Log (fixed-point passes or "eigen", Newton steps) of every attempt made."""
    made = []
    fixed_point, polish = rootsmod.fixed_point_seeds, rootsmod.newton_polish

    def seeds(probs, y, passes):
        made.append([passes])
        return fixed_point(probs, y, passes)

    def eigen(*args, **kwargs):
        made.append(["eigen"])
        return np.empty(0, dtype=complex)

    def newton(z, probs, y, steps):
        made[-1].append(steps)
        return polish(z, probs, y, steps)

    monkeypatch.setattr(rootsmod, "fixed_point_seeds", seeds)
    monkeypatch.setattr(rootsmod, "eigen_seeds", eigen)
    monkeypatch.setattr(rootsmod, "newton_polish", newton)
    return made


def test_full_attempt_certifies_when_the_cheap_one_fails(reference_report, monkeypatch):
    # with no Newton step to spend, every cheap start comes back NaN; the
    # full fixed-point attempt must then find the companion-matrix roots
    # without reaching the eigenvalues
    sm, hw, ceff, probs = _station_inputs(reference_report, 1)
    made = _record_budgets(monkeypatch)
    monkeypatch.setattr(rootsmod, "CHEAP_STEPS", 0)
    got = find_all_roots(probs, lambda z: headway.y_pgf(z, sm.arrival_rate, hw), sm.rho)
    assert made == [[rootsmod.CHEAP_PASSES, 0],
                    [rootsmod.FULL_PASSES, rootsmod.FULL_STEPS]]
    expected = oracles.poly_roots_in_disk(probs, sm.arrival_rate, hw, ceff)
    assert len(got) == len(expected) == ceff
    assert max(np.min(np.abs(expected - z)) for z in got) < 1e-6
    assert np.max(np.abs(np.array(got) - np.array(sm.roots))) < 1e-12


def test_cheap_attempt_certifies_every_preset_station(monkeypatch):
    made = _record_budgets(monkeypatch)
    solves = 0
    for name in model.PRESETS:
        rep = solver.analyze_route(model.preset(name))
        solves += sum(bool(sm.roots) for sm in rep.stations)
    assert solves > 0
    assert made == [[rootsmod.CHEAP_PASSES, rootsmod.CHEAP_STEPS]] * solves


def test_eigen_stage_declines_a_slowly_decaying_series(monkeypatch):
    # one vehicle in a hundred meets a geometric batch of mean 999: Y's
    # coefficients stay above 1e-14 for some 20 000 terms (the mean, 10
    # arrivals, is well below C = 34), and the stage gives up before np.roots
    q = 0.999

    def slow_y(z):
        return 0.99 + 0.01 * (1.0 - q) / (1.0 - q * np.asarray(z, dtype=complex))

    def forbidden(*args, **kwargs):
        raise AssertionError("np.roots must not run on this series")

    monkeypatch.setattr(rootsmod.np, "roots", forbidden)
    seeds = rootsmod.eigen_seeds(_point_mass_probs(34), slow_y)
    assert seeds.shape == (0,)


def test_eigen_stage_certifies_a_series_near_the_cap(monkeypatch):
    # a series of almost EIGEN_MAX_SERIES terms still goes to np.roots, and
    # its seeds alone give the certified root set (mean 15.7 arrivals, C = 40)
    cap, q = 40, 0.94
    terms = np.flatnonzero((1.0 - q) * q ** np.arange(4096) > 1e-14)[-1] + 1
    assert 0.9 * rootsmod.EIGEN_MAX_SERIES < terms <= rootsmod.EIGEN_MAX_SERIES

    def y(z):
        return (1.0 - q) / (1.0 - q * np.asarray(z, dtype=complex))

    monkeypatch.setattr(rootsmod, "fixed_point_seeds", lambda *a, **k: np.empty(0))
    rs = find_all_roots(_point_mass_probs(cap), y, q / (1.0 - q) / cap)
    assert validate_root_set(rs, _point_mass_probs(cap), y) == []


def test_find_all_roots_raises_when_no_stage_certifies(monkeypatch):
    C = 6
    monkeypatch.setattr(rootsmod, "fixed_point_seeds",
                        lambda *a, **k: _roots_of_unity(C)[:3])
    monkeypatch.setattr(rootsmod, "eigen_seeds", lambda *a, **k: np.empty(0))
    with pytest.raises(RootSearchError, match="expected 6 roots") as err:
        find_all_roots(_point_mass_probs(C), _unit_y, 0.0)
    assert err.value.needed == C
    assert err.value.found < C
    # the payload is the pooled set the last stage validated: z = 1 and the
    # seeded roots of unity, each with its conjugate partner
    roots = np.array(err.value.roots)
    assert len(roots) == err.value.found
    assert 1.0 in err.value.roots
    assert all(np.min(np.abs(roots - z.conjugate())) < 1e-12 for z in roots)


def test_find_all_roots_error_carries_payload(monkeypatch):
    # with no seeds from either stage the pool is z = 1 alone, and the error
    # reports exactly that set and its count
    C = 6
    for stage in ("fixed_point_seeds", "eigen_seeds"):
        monkeypatch.setattr(rootsmod, stage, lambda *a, **k: np.empty(0))
    with pytest.raises(RootSearchError) as err:
        find_all_roots(_point_mass_probs(C), _unit_y, 0.0)
    assert err.value.found == 1
    assert err.value.needed == C
    assert err.value.roots == (1.0 + 0j,)
    assert "expected 6 roots, have 1" in str(err.value)


@pytest.mark.parametrize("rho", [-0.1, 1.0, math.nan])
def test_find_all_roots_rejects_utilization_outside_unit_interval(rho):
    with pytest.raises(ValueError, match="0 <= rho < 1"):
        find_all_roots(_point_mass_probs(4), _unit_y, rho)


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
            return solver.den_eval(z, probs, lambda w: headway.y_pgf(w, lam, hw))

        z = np.array(sm.roots)
        step = den(z) / ((den(z + h) - den(z - h)) / (2 * h))
        worst = max(worst, float(np.max(np.abs(step))))
    assert worst <= 1e-14
