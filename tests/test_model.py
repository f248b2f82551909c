import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transitq import model


def test_reference_scenario_is_valid(reference):
    assert model.validate(reference) == []
    assert reference.route.num_stations == 10
    assert reference.route.capacity == 34
    assert reference.route.demand_factor == 0.8
    assert reference.incidents.rate == 0.2
    assert reference.incidents.duration_rate == 1.0


def test_presets():
    assert model.preset("reference").route.nominal_headway == 6.0
    assert model.preset("reference-h4").route.nominal_headway == 4.0
    with pytest.raises(ValueError, match="unknown preset"):
        model.preset("nope")
    assert set(model.PRESETS) == {"reference", "reference-h4"}


def with_field(sc, section, field, value):
    """``sc`` with one station-1, route or incident field replaced."""
    if section == "station":
        st0 = dataclasses.replace(sc.route.stations[0], **{field: value})
        return dataclasses.replace(
            sc, route=dataclasses.replace(sc.route, stations=(st0,) + sc.route.stations[1:]))
    if section == "route":
        return dataclasses.replace(sc, route=dataclasses.replace(sc.route, **{field: value}))
    return dataclasses.replace(
        sc, incidents=dataclasses.replace(sc.incidents, **{field: value}))


@pytest.mark.parametrize(
    "patch, fragment",
    [
        (dict(section="station", field="arrival_rate", value=-1.0), "arrival rate"),
        (dict(section="station", field="alight_prob", value=1.5), "alighting probability"),
        (dict(section="route", field="interstation_time", value=0.0), "interstation_time"),
        (dict(section="route", field="cycle_time", value=-3.0), "cycle_time"),
        (dict(section="route", field="nominal_headway", value=0.0), "nominal_headway"),
        (dict(section="route", field="capacity", value=0), "capacity"),
        (dict(section="route", field="demand_factor", value=0.0), "demand_factor"),
        (dict(section="incidents", field="rate", value=-0.1), "incident rate"),
        (dict(section="incidents", field="duration_rate", value=0.0), "theta"),
    ],
)
def test_validate_flags_each_field(reference, patch, fragment):
    sc = with_field(reference, patch["section"], patch["field"], patch["value"])
    problems = model.validate(sc)
    assert problems, f"expected a violation for {patch}"
    assert any(fragment in p for p in problems)
    with pytest.raises(model.InvalidScenarioError):
        model.require_valid(sc)


@pytest.mark.parametrize("section, field", [
    ("station", "arrival_rate"), ("station", "alight_prob"),
    ("route", "interstation_time"), ("route", "cycle_time"),
    ("route", "nominal_headway"), ("route", "capacity"), ("route", "demand_factor"),
    ("route", "segment_times"), ("incidents", "rate"), ("incidents", "duration_rate"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validate_flags_each_non_finite_field(reference, section, field, value):
    patched = (4.0,) * 9 + (value,) if field == "segment_times" else value
    sc = with_field(reference, section, field, patched)
    name = {
        "arrival_rate": "station 1: arrival rate (lambda)",
        "alight_prob": "station 1: alighting probability (alpha)",
        "segment_times": "segment_times entry 10",
        "rate": "incident rate (gamma)",
        "duration_rate": "theta",
    }.get(field, field)
    assert model.validate(sc) == [f"{name} must be finite, got {value}"]
    with pytest.raises(model.InvalidScenarioError):
        model.require_valid(sc)


@pytest.mark.parametrize("fields, problems", [
    pytest.param([("station", "arrival_rate", 1e300), ("route", "demand_factor", 1e10)],
                 ["station 1: scaled arrival rate (lambda * demand_factor) must be finite, "
                  "got inf"], id="scaled-rate-overflows"),
    pytest.param([("incidents", "duration_rate", 1e-200)],
                 ["headway variance 4*T_N*gamma/theta^2 must be finite, got nan"],
                 id="theta-squared-underflows"),
    pytest.param([("incidents", "duration_rate", 1e200)],
                 ["headway variance 4*T_N*gamma/theta^2 must be finite, got nan"],
                 id="theta-squared-overflows"),
    pytest.param([("incidents", "rate", 1e300), ("incidents", "duration_rate", 1e-10)],
                 ["adjusted headway must be finite, got inf",
                  "headway variance 4*T_N*gamma/theta^2 must be finite, got inf"],
                 id="adjusted-headway-overflows"),
])
def test_validate_flags_non_finite_derived_quantities(reference, fields, problems):
    sc = reference
    for section, field, value in fields:
        sc = with_field(sc, section, field, value)
    assert model.validate(sc) == problems
    with pytest.raises(model.InvalidScenarioError):
        model.require_valid(sc)


@pytest.mark.parametrize("capacity", [34, 34.0])
def test_whole_capacity_loads_as_int(reference, capacity):
    doc = model.scenario_to_dict(reference)
    doc["route"]["capacity"] = capacity
    cap = model.scenario_from_dict(doc).route.capacity
    assert cap == 34 and type(cap) is int


def test_fractional_capacity_is_malformed(reference):
    doc = model.scenario_to_dict(reference)
    doc["route"]["capacity"] = 34.5  # int() would truncate it to a valid 34
    with pytest.raises(ValueError, match="'capacity': 34.5 is not a whole number"):
        model.scenario_from_dict(doc)


@pytest.mark.parametrize("keys, value", [
    (("route", "capacity"), True),  # float(True) would read it as capacity 1
    (("route", "stations", 0, "lambda"), True),
    (("route", "stations", 3, "alpha"), False),
    (("route", "nominal_headway"), True),
    (("incidents", "theta"), False),
    # float() would parse a JSON string, spaces and "inf" included
    (("route", "stations", 0, "lambda"), "0.75"),
    (("route", "capacity"), "34"),
    (("route", "stations", 1, "lambda"), " inf "),
], ids=["capacity", "lambda", "alpha", "nominal_headway", "theta",
        "lambda-string", "capacity-string", "lambda-inf-string"])
def test_boolean_number_is_malformed(reference, keys, value):
    doc = model.scenario_to_dict(reference)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(ValueError, match=f"malformed scenario document: .*'{keys[-1]}': "
                                         f"{json.dumps(value)} is not a number"):
        model.scenario_from_dict(doc)


def test_non_finite_config_values_load_and_fail_validation(tmp_path, reference):
    doc = model.scenario_to_dict(reference)
    doc["route"]["stations"][3]["lambda"] = math.nan
    doc["incidents"]["gamma"] = math.inf
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity and reads them back
    assert model.validate(model.load_scenario(str(path))) == [
        "station 4: arrival rate (lambda) must be finite, got nan",
        "incident rate (gamma) must be finite, got inf",
    ]
    doc["route"]["capacity"] = math.inf
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed scenario document"):
        model.load_scenario(str(path))


def test_validate_empty_route():
    sc = model.Scenario(route=model.RouteConfig(stations=()),
                        incidents=model.IncidentParams(rate=0.0, duration_rate=1.0))
    assert any("at least one station" in p for p in model.validate(sc))


def test_validate_travel_time_vs_cycle(reference):
    # 10 stations x 5 min = 50 min reaches exactly half the 100-min cycle: legal
    assert model.validate(reference) == []
    tight = dataclasses.replace(
        reference, route=dataclasses.replace(reference.route, cycle_time=99.0))
    assert any("half" in p for p in model.validate(tight))


def test_segment_times_override_and_checks(reference):
    seg = (4.0,) * 10
    sc = dataclasses.replace(
        reference, route=dataclasses.replace(reference.route, segment_times=seg))
    assert model.validate(sc) == []
    assert model.travel_time_to(sc.route, 3) == pytest.approx(12.0)
    assert model.travel_time_to(sc.route, 10) == pytest.approx(40.0)

    bad_len = dataclasses.replace(
        reference, route=dataclasses.replace(reference.route, segment_times=(4.0,) * 3))
    assert any("length" in p for p in model.validate(bad_len))
    bad_val = dataclasses.replace(
        reference, route=dataclasses.replace(reference.route, segment_times=(0.0,) + seg[1:]))
    assert any("positive" in p for p in model.validate(bad_val))


def test_travel_time_uniform(reference):
    assert model.travel_time_to(reference.route, 1) == 5.0
    assert model.travel_time_to(reference.route, 10) == 50.0
    with pytest.raises(IndexError):
        model.travel_time_to(reference.route, 0)
    with pytest.raises(IndexError):
        model.travel_time_to(reference.route, 11)


def test_fleet_size_and_arrival_rates(reference):
    route = reference.route
    assert route.fleet_size == pytest.approx(100.0 / 6.0)
    rates = route.arrival_rates()
    assert rates[0] == pytest.approx(0.75 * 0.8)
    assert rates[-1] == 0.0
    assert route.alight_probs()[-1] == 1.0


def test_adjusted_headway_hand_value(reference):
    # H + 2 * (gamma * T_N / theta) / fleet = 6 + 2*(0.2*50/1)/(100/6) = 7.2
    assert model.adjusted_headway(reference) == pytest.approx(7.2, abs=1e-12)
    no_inc = dataclasses.replace(
        reference, incidents=model.IncidentParams(rate=0.0, duration_rate=1.0))
    assert model.adjusted_headway(no_inc) == 6.0


def test_value_tag_is_short_and_lossless():
    assert [model.value_tag(v) for v in (0.0, 0.2, 2.0, 34, 0.1234561)] == [
        "0", "0.2", "2", "34", "0.1234561"]
    assert model.value_tag(1 / 3) == "0.3333333333333333"
    assert model.value_tag(12345678) == "12345678"


def test_expand_grid_labels_values_equal_to_six_digits_apart(reference):
    # both values print as 0.123456 under %g
    a, b = model.expand_grid(reference, "gamma", [0.1234561, 0.1234562])
    assert (a.label, b.label) == ("reference:gamma=0.1234561", "reference:gamma=0.1234562")


def test_expand_grid_each_parameter(reference):
    for param, value in [("capacity", 30), ("gamma", 0.1), ("theta", 2.0),
                         ("nominal_headway", 4.0), ("demand_factor", 0.5)]:
        (sc,) = model.expand_grid(reference, param, [value])
        assert sc.label == f"reference:{param}={value:g}"
        got = {
            "capacity": sc.route.capacity,
            "gamma": sc.incidents.rate,
            "theta": sc.incidents.duration_rate,
            "nominal_headway": sc.route.nominal_headway,
            "demand_factor": sc.route.demand_factor,
        }[param]
        assert got == value
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        model.expand_grid(reference, "velocity", [1.0])


@pytest.mark.parametrize("value", [34.5, math.inf, math.nan])
def test_expand_grid_refuses_a_capacity_that_is_not_an_integer(reference, value):
    # int() would build capacity 34 labelled 34.5, and raise OverflowError at inf
    with pytest.raises(ValueError, match="not an integer"):
        model.expand_grid(reference, "capacity", [value])


def test_expand_grid_leaves_base_untouched(reference):
    model.expand_grid(reference, "gamma", [0.0, 0.5, 1.0])
    assert reference.incidents.rate == 0.2


def test_json_round_trip(tmp_path, reference):
    path = tmp_path / "scenario.json"
    model.save_scenario(reference, str(path))
    back = model.load_scenario(str(path))
    assert back == reference


def test_json_round_trip_with_segments(tmp_path, reference):
    sc = dataclasses.replace(
        reference, route=dataclasses.replace(reference.route, segment_times=(4.5,) * 10))
    path = tmp_path / "seg.json"
    model.save_scenario(sc, str(path))
    assert model.load_scenario(str(path)) == sc


def test_scenario_from_dict_missing_field():
    doc = {"route": {"stations": [{"lambda": 1.0, "alpha": 0.0}]}}
    with pytest.raises(ValueError, match="malformed scenario document"):
        model.scenario_from_dict(doc)


def test_scenario_dict_defaults():
    doc = {
        "route": {"stations": [{"lambda": 1.0, "alpha": 0.5}],
                  "cycle_time": 40.0, "nominal_headway": 5.0, "capacity": 10},
        "incidents": {"gamma": 0.0, "theta": 1.0},
    }
    sc = model.scenario_from_dict(doc)
    assert sc.route.interstation_time == 5.0
    assert sc.route.demand_factor == 1.0
    assert sc.label == ""


@given(
    gamma=st.floats(0.0, 1.0),
    theta=st.floats(0.1, 5.0),
    headway=st.floats(1.0, 10.0),
)
def test_adjusted_headway_properties(gamma, theta, headway):
    sc = model.reference_scenario(nominal_headway=headway)
    sc = dataclasses.replace(sc, incidents=model.IncidentParams(gamma, theta))
    adj = model.adjusted_headway(sc)
    assert adj >= headway  # incidents can only stretch the operated headway
    t_last = model.travel_time_to(sc.route, 10)
    expected = headway + 2.0 * gamma * t_last / theta / sc.route.fleet_size
    assert math.isclose(adj, expected, rel_tol=1e-12)


@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
def test_scenario_dict_round_trip_random(gamma, theta):
    base = model.reference_scenario()
    sc = dataclasses.replace(base, incidents=model.IncidentParams(gamma, theta))
    assert model.scenario_from_dict(json.loads(json.dumps(model.scenario_to_dict(sc)))) == sc
