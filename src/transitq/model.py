"""Route and incident configuration: schema, validation, derived planning quantities.

All times are minutes, all rates are per-minute. Values are frozen after
construction, so scenarios can be shared freely across threads or processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence


class InvalidScenarioError(ValueError):
    """Raised when an operation receives a scenario that fails validate()."""


@dataclass(frozen=True)
class StationParams:
    """Per-station demand: Poisson arrival rate and alighting probability."""

    arrival_rate: float  # passengers/min, >= 0
    alight_prob: float   # probability each onboard passenger leaves here, in [0, 1]


@dataclass(frozen=True)
class RouteConfig:
    """Static description of one transit line.

    ``demand_factor`` scales every station's arrival rate; downstream code
    reads the scaled rates through :meth:`arrival_rates` and never applies
    the factor itself.  ``segment_times`` optionally overrides the uniform
    ``interstation_time`` with per-segment minutes (length must match the
    station count).
    """

    stations: tuple[StationParams, ...]
    interstation_time: float = 5.0
    cycle_time: float = 100.0
    nominal_headway: float = 6.0
    capacity: int = 34
    demand_factor: float = 1.0
    segment_times: tuple[float, ...] | None = None

    @property
    def num_stations(self) -> int:
        return len(self.stations)

    @property
    def fleet_size(self) -> float:
        """Vehicles in circulation, cycle_time/nominal_headway (may be fractional)."""
        return self.cycle_time / self.nominal_headway

    def arrival_rates(self) -> tuple[float, ...]:
        """Demand-scaled arrival rate per station."""
        return tuple(st.arrival_rate * self.demand_factor for st in self.stations)

    def alight_probs(self) -> tuple[float, ...]:
        return tuple(st.alight_prob for st in self.stations)


@dataclass(frozen=True)
class IncidentParams:
    """Random service-suspension process along the track.

    ``rate`` is the Poisson occurrence intensity per minute of travel;
    suspension durations are exponential with rate ``duration_rate``
    (mean duration 1/duration_rate minutes).
    """

    rate: float
    duration_rate: float


@dataclass(frozen=True)
class Scenario:
    route: RouteConfig
    incidents: IncidentParams
    label: str = ""


def validate(scenario: Scenario) -> list[str]:
    """Check every schema invariant; returns human-readable violations (empty = valid).

    NaN and infinite numbers are reported alone: the range checks assume
    finite values.  The quantities derived from valid fields, the scaled
    arrival rates, the adjusted headway, the headway variance and each
    station's arrival-count moments, are checked last, since they can still
    overflow.
    """
    route = scenario.route
    inc = scenario.incidents
    numbers = [("interstation_time", route.interstation_time),
               ("cycle_time", route.cycle_time),
               ("nominal_headway", route.nominal_headway),
               ("capacity", route.capacity),
               ("demand_factor", route.demand_factor),
               ("incident rate (gamma)", inc.rate),
               ("theta", inc.duration_rate)]
    v: list[str] = []
    for idx, st in enumerate(route.stations, start=1):
        for name, value in (("arrival rate (lambda)", st.arrival_rate),
                            ("alighting probability (alpha)", st.alight_prob)):
            if not math.isfinite(value):
                v.append(f"station {idx}: {name} must be finite, got {value}")
    v += [f"{name} must be finite, got {value}"
          for name, value in numbers if not math.isfinite(value)]
    v += [f"segment_times entry {idx} must be finite, got {t}"
          for idx, t in enumerate(route.segment_times or (), start=1) if not math.isfinite(t)]
    if v:
        return v
    if not route.stations:
        v.append("route must have at least one station")
    for idx, st in enumerate(route.stations, start=1):
        if st.arrival_rate < 0:
            v.append(f"station {idx}: arrival rate (lambda) must be >= 0, got {st.arrival_rate}")
        if not 0.0 <= st.alight_prob <= 1.0:
            v.append(f"station {idx}: alighting probability (alpha) must lie in [0, 1], got {st.alight_prob}")
    if route.interstation_time <= 0:
        v.append(f"interstation_time must be positive, got {route.interstation_time}")
    if route.cycle_time <= 0:
        v.append(f"cycle_time must be positive, got {route.cycle_time}")
    if route.nominal_headway <= 0:
        v.append(f"nominal_headway must be positive, got {route.nominal_headway}")
    if int(route.capacity) != route.capacity or route.capacity < 1:
        v.append(f"capacity must be an integer >= 1, got {route.capacity}")
    if route.demand_factor <= 0:
        v.append(f"demand_factor must be positive, got {route.demand_factor}")
    if route.segment_times is not None:
        if len(route.segment_times) != len(route.stations):
            v.append("segment_times length must equal the number of stations")
        if any(t <= 0 for t in route.segment_times):
            v.append("segment_times entries must all be positive")
    if route.nominal_headway > 0 and route.cycle_time > 0:
        if route.fleet_size <= 0:
            v.append("fleet size cycle_time/nominal_headway must be positive")
        # travel to the final station has to fit inside half the vehicle cycle
        total = _total_travel_time(route)
        if route.stations and total > route.cycle_time / 2 + 1e-12:
            v.append(
                f"travel time to the last station ({total:g} min) exceeds half "
                f"the cycle time ({route.cycle_time / 2:g} min)"
            )
    if inc.rate < 0:
        v.append(f"incident rate (gamma) must be >= 0, got {inc.rate}")
    if inc.duration_rate <= 0:
        v.append(f"theta must be positive (incident duration rate), got {inc.duration_rate}")
    if v:
        return v
    # imported here because headway imports this module
    from .headway import headway_base_moments, truncated_headway, y_moments
    # where theta^2 over- or underflows the headway model cannot evaluate it
    try:
        h_var = headway_base_moments(scenario, route.num_stations)[1]
    except ArithmeticError:
        h_var = math.nan
    v = [f"station {idx}: scaled arrival rate (lambda * demand_factor) must be finite, got {rate}"
         for idx, rate in enumerate(route.arrival_rates(), start=1) if not math.isfinite(rate)]
    v += [f"{name} must be finite, got {value}"
          for name, value in (("adjusted headway", adjusted_headway(scenario)),
                              ("headway variance 4*T_N*gamma/theta^2", h_var))
          if not math.isfinite(value)]
    if v:
        return v
    for idx, rate in enumerate(route.arrival_rates(), start=1):
        try:  # the cube of the headway mean or of the rate may overflow
            y = y_moments(rate, truncated_headway(scenario, idx))
            finite = all(map(math.isfinite, (y.mean, y.central2, y.central3)))
        except ArithmeticError:
            finite = False
        if not finite:
            v.append(f"station {idx}: arrival-count moments per headway must be finite")
    return v


def _total_travel_time(route: RouteConfig) -> float:
    if route.segment_times is not None and len(route.segment_times) == len(route.stations):
        return float(sum(route.segment_times))
    return route.num_stations * route.interstation_time


def require_valid(scenario: Scenario) -> None:
    problems = validate(scenario)
    if problems:
        raise InvalidScenarioError("; ".join(problems))


def travel_time_to(route: RouteConfig, n: int) -> float:
    """Deterministic (no-incident) travel time from the hub to station n (1-based)."""
    if not 1 <= n <= route.num_stations:
        raise IndexError(f"station index {n} out of range 1..{route.num_stations}")
    if route.segment_times is not None:
        return float(sum(route.segment_times[:n]))
    return n * route.interstation_time


def adjusted_headway(scenario: Scenario) -> float:
    """Planned headway inflated by the round-trip incident delay.

    Each vehicle accumulates an expected suspension delay of
    rate * T_last / duration_rate one way; doubling it for the round trip
    and spreading it over the fleet gives the dispatch headway actually
    operated: nominal + 2 * E[delay] / fleet_size.
    """
    route = scenario.route
    inc = scenario.incidents
    t_last = travel_time_to(route, route.num_stations)
    mean_delay = inc.rate * t_last / inc.duration_rate
    return route.nominal_headway + 2.0 * mean_delay / route.fleet_size


SWEEPABLE = ("capacity", "gamma", "theta", "nominal_headway", "demand_factor")


def value_tag(value: float) -> str:
    """``%g`` where it reads back as the same number, else ``repr``: no two values share one."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def expand_grid(base: Scenario, parameter: str, values: Iterable[float]) -> list[Scenario]:
    """One scenario per value of the swept parameter, everything else untouched.

    ``parameter`` must be one of capacity | gamma | theta | nominal_headway |
    demand_factor (the external config-key names); a capacity that is not an
    integer raises ValueError.  Labels get a ``name=value_tag(value)`` suffix
    so downstream reports stay distinguishable.
    """
    if parameter not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {parameter!r}; expected one of {SWEEPABLE}")
    out = []
    for val in values:
        if parameter == "gamma":
            sc = replace(base, incidents=replace(base.incidents, rate=float(val)))
        elif parameter == "theta":
            sc = replace(base, incidents=replace(base.incidents, duration_rate=float(val)))
        elif parameter == "capacity":
            if not float(val).is_integer():
                raise ValueError(f"capacity sweep value {val!r} is not an integer")
            sc = replace(base, route=replace(base.route, capacity=int(val)))
        else:
            sc = replace(base, route=replace(base.route, **{parameter: float(val)}))
        out.append(replace(sc, label=f"{base.label}:{parameter}={value_tag(val)}"))
    return out


# ---------------------------------------------------------------------------
# JSON config document


def _number(value, field: str) -> float:
    """A JSON number as a float: an int or a float, and neither JSON's true
    and false nor a string, which float() would read as 1.0 or parse."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field!r}: {json.dumps(value)} is not a number")
    return float(value)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from the JSON config schema.

    Expected shape::

        {"route": {"stations": [{"lambda": 0.75, "alpha": 0.0}, ...],
                   "interstation_time": 5.0, "cycle_time": 100.0,
                   "nominal_headway": 6.0, "capacity": 34, "demand_factor": 0.8},
         "incidents": {"gamma": 0.2, "theta": 1.0}, "label": "reference"}
    """
    try:
        r = doc["route"]
        stations = tuple(
            StationParams(arrival_rate=_number(st["lambda"], "lambda"),
                          alight_prob=_number(st["alpha"], "alpha"))
            for st in r["stations"]
        )
        seg = r.get("segment_times")
        capacity = int(_number(r["capacity"], "capacity"))
        if capacity != float(r["capacity"]):  # int() would truncate 34.5 to a valid 34
            raise ValueError(f"'capacity': {r['capacity']!r} is not a whole number")
        route = RouteConfig(
            stations=stations,
            interstation_time=_number(r.get("interstation_time", RouteConfig.interstation_time),
                                      "interstation_time"),
            cycle_time=_number(r["cycle_time"], "cycle_time"),
            nominal_headway=_number(r["nominal_headway"], "nominal_headway"),
            capacity=capacity,
            demand_factor=_number(r.get("demand_factor", RouteConfig.demand_factor),
                                  "demand_factor"),
            segment_times=(tuple(_number(t, "segment_times") for t in seg)
                           if seg is not None else None),
        )
        inc = IncidentParams(
            rate=_number(doc["incidents"]["gamma"], "gamma"),
            duration_rate=_number(doc["incidents"]["theta"], "theta"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed scenario document: missing or bad field {exc}") from exc
    return Scenario(route=route, incidents=inc, label=str(doc.get("label", "")))


def scenario_to_dict(scenario: Scenario) -> dict:
    route = scenario.route
    doc: dict = {
        "route": {
            "stations": [
                {"lambda": st.arrival_rate, "alpha": st.alight_prob} for st in route.stations
            ],
            "interstation_time": route.interstation_time,
            "cycle_time": route.cycle_time,
            "nominal_headway": route.nominal_headway,
            "capacity": route.capacity,
            "demand_factor": route.demand_factor,
        },
        "incidents": {
            "gamma": scenario.incidents.rate,
            "theta": scenario.incidents.duration_rate,
        },
        "label": scenario.label,
    }
    if route.segment_times is not None:
        doc["route"]["segment_times"] = list(route.segment_times)
    return doc


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Presets
#
# The ten-station demo line used throughout the docs and tests.  Two named
# headway variants ship because the sensible default is genuinely ambiguous
# (planning documents quote both a 6-minute timetable and a 4-minute one);
# pick explicitly, nothing here silently chooses for you.

_DEMO_ARRIVALS = (0.75, 1.5, 0.75, 3.0, 1.5, 1.0, 0.75, 0.5, 0.2, 0.0)
_DEMO_ALIGHT = (0.0, 0.0, 0.1, 0.25, 0.25, 0.8, 0.5, 0.1, 0.75, 1.0)


def reference_scenario(nominal_headway: float = 6.0, label: str = "reference") -> Scenario:
    stations = tuple(
        StationParams(lam, al) for lam, al in zip(_DEMO_ARRIVALS, _DEMO_ALIGHT)
    )
    route = RouteConfig(
        stations=stations,
        interstation_time=5.0,
        cycle_time=100.0,
        nominal_headway=nominal_headway,
        capacity=34,
        demand_factor=0.8,
    )
    return Scenario(route=route, incidents=IncidentParams(rate=0.2, duration_rate=1.0), label=label)


PRESETS = ("reference", "reference-h4")


def preset(name: str) -> Scenario:
    """Named configurations: ``reference`` (6 min headway) and ``reference-h4`` (4 min)."""
    if name == "reference":
        return reference_scenario(6.0, "reference")
    if name == "reference-h4":
        return reference_scenario(4.0, "reference-h4")
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESETS}")
