"""Serialization round-trips for reports, stats, comparisons, and sweeps."""

import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transitq import model, report, solver
from transitq.report import (
    COMPARISON_COLUMNS,
    ROOT_COLUMNS,
    ROUTE_COLUMNS,
    SIM_COLUMNS,
    SWEEP_COLUMNS,
    fmt_value,
    parse_value,
    read_route_report,
    read_sim_stats,
    roots_to_csv,
    sweep_entries,
    sweep_index_to_csv,
    write_route_report,
    write_sim_stats,
)
from transitq.simulator import ComparisonRow, SimConfig, compare, run_simulation


# ---------------------------------------------------------------------------
# scalar formatting


@pytest.mark.parametrize("value, text", [
    (True, "true"),
    (False, "false"),
    (7, "7"),
    (-3, "-3"),
    (math.nan, ""),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (0.0, "0"),
    (2.5, "2.5"),
    (math.pi, "3.14159265"),
    (1e-12, "1e-12"),
])
def test_fmt_value(value, text):
    assert fmt_value(value) == text


def test_parse_value_specials():
    assert math.isnan(parse_value(""))
    assert math.isnan(parse_value("   "))
    assert parse_value("inf") == math.inf
    assert parse_value("-inf") == -math.inf
    assert parse_value(" 2.5 ") == 2.5


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_parse_round_trip(x):
    back = parse_value(fmt_value(x))
    assert math.isclose(back, x, rel_tol=1e-8, abs_tol=1e-300)


@given(st.floats())
def test_fmt_parse_never_crashes(x):
    parse_value(fmt_value(x))  # NaN/inf sentinels included


def test_csv_comment_parsing():
    text = report._csv_text({"label": "demo", "runs": 5}, ["a", "b"],
                            [["1", "2"], ["3", ""]])
    comments, header, rows = report._read_csv_text(text)
    assert comments == {"label": "demo", "runs": "5"}
    assert header == ["a", "b"]
    assert rows == [["1", "2"], ["3", ""]]


def test_empty_csv_rejected():
    with pytest.raises(ValueError, match="empty CSV"):
        report._read_csv_text("# label: only-comments\n")


@pytest.mark.parametrize("text, is_json", [
    ('{"label": "x"}', True),
    ("  [1, 2]", True),
    ("station,rho\n1,0.5\n", False),
    ("# label: x\nstation\n1\n", False),
])
def test_json_sniffing(text, is_json):
    assert report._looks_like_json(text) is is_json


# ---------------------------------------------------------------------------
# route reports


def assert_reports_match(a, b):
    assert b.label == a.label
    assert len(b.stations) == len(a.stations)
    for sa, sb, ha, hb in zip(a.stations, b.stations, a.headway, b.headway):
        assert sb.station == sa.station
        assert sb.stable == sa.stable
        for field in ("rho", "eq", "varq", "ew", "varw"):
            va, vb = getattr(sa, field), getattr(sb, field)
            if math.isnan(va):
                assert math.isnan(vb)
            elif math.isinf(va):
                assert vb == va
            else:
                assert vb == pytest.approx(va, rel=1e-8)
        assert hb.mu == pytest.approx(ha.mu, rel=1e-8)
        assert hb.sigma == pytest.approx(ha.sigma, rel=1e-8)
        assert hb.zero_mass == pytest.approx(ha.zero_mass, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_route_report_round_trip(reference_report, tmp_path, fmt):
    path = tmp_path / f"route.{fmt}"
    write_route_report(reference_report, path, fmt=fmt)
    assert_reports_match(reference_report, read_route_report(path))


def test_route_round_trip_keeps_terminal_semantics(reference_report, tmp_path):
    # the terminal station's undefined wait, the solver's mark of a station
    # without arrivals, must come back so downstream comparisons keep
    # excluding it; the file carries no arrival rate, so none is made up
    path = tmp_path / "route.csv"
    write_route_report(reference_report, path)
    back = read_route_report(path)
    assert math.isnan(back.stations[-1].ew)
    assert all(math.isnan(sm.arrival_rate) for sm in back.stations)


@pytest.mark.parametrize("name", model.PRESETS)
def test_read_back_report_compares_like_the_fresh_one(name, tmp_path):
    scenario = model.preset(name)
    fresh = solver.analyze_route(scenario)
    stats = run_simulation(scenario, SimConfig(runs=2000, seed=5))
    statuses = [row.status for row in compare(fresh, stats).rows]
    assert "excluded-no-arrivals" in statuses
    for fmt in ("csv", "json"):
        path = tmp_path / f"route.{fmt}"
        write_route_report(fresh, path, fmt=fmt)
        assert [row.status for row in compare(read_route_report(path), stats).rows] == statuses


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unstable_report_round_trip(reference, tmp_path, fmt):
    inc = dataclasses.replace(reference.incidents, rate=1.0 / 3.0)
    congested = dataclasses.replace(reference, incidents=inc, label="congested")
    rep = solver.analyze_route(congested)
    path = tmp_path / f"unstable.{fmt}"
    write_route_report(rep, path, fmt=fmt)
    back = read_route_report(path)
    assert_reports_match(rep, back)
    assert not back.stations[4].stable
    assert back.stations[4].eq == math.inf


def test_route_report_rejects_foreign_columns(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("# label: x\nstation,load\n1,0.5\n")
    with pytest.raises(ValueError, match="unexpected route report columns"):
        read_route_report(path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_missing_column_is_named(reference_report, tmp_path, fmt):
    path = tmp_path / f"route.{fmt}"
    write_route_report(reference_report, path, fmt=fmt)
    if fmt == "json":
        doc = json.loads(path.read_text())
        del doc["stations"][3]["var_wait"]
        path.write_text(json.dumps(doc))
    else:
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = lines[5].rsplit(",", 1)[0] + "\n"  # drop zero_mass
        path.write_text("".join(lines))
    missing = "var_wait" if fmt == "json" else "zero_mass"
    with pytest.raises(ValueError, match=f"route report record lacks column '{missing}'"):
        read_route_report(path)


def test_json_value_of_wrong_type_rejected(reference_report, tmp_path):
    path = tmp_path / "route.json"
    write_route_report(reference_report, path, fmt="json")
    doc = json.loads(path.read_text())
    doc["stations"][0]["station"] = None
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="route report record has a value of the wrong type"):
        read_route_report(path)


def test_json_without_record_list_rejected(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text('{"label": "x", "rows": []}')
    with pytest.raises(ValueError, match="simulation stats JSON has no 'stations' list"):
        read_sim_stats(path)


def test_route_csv_shape(reference_report):
    text = report.render(report.ROUTE, report.route_report_to_json(reference_report))
    comments, header, rows = report._read_csv_text(text)
    assert comments["label"] == "reference"
    assert header == ROUTE_COLUMNS
    assert len(rows) == 10
    assert rows[0][0] == "1" and rows[0][2] == "true"


def test_route_json_uses_null_for_nan(reference_report):
    doc = report.route_report_to_json(reference_report)
    term = doc["stations"][-1]
    assert term["e_wait"] is None
    assert isinstance(doc["stations"][0]["rho"], float)
    assert doc["stations"][0]["stable"] is True


# ---------------------------------------------------------------------------
# simulation stats


@pytest.fixture(scope="module")
def small_stats(reference):
    return run_simulation(reference, SimConfig(runs=300, seed=17))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sim_stats_round_trip(small_stats, tmp_path, fmt):
    path = tmp_path / f"sim.{fmt}"
    write_sim_stats(small_stats, path, fmt=fmt)
    back = read_sim_stats(path)
    assert (back.label, back.runs, back.seed, back.warmup, back.rng_layout) == (
        small_stats.label, small_stats.runs, small_stats.seed, small_stats.warmup, 2)
    for sa, sb in zip(small_stats.stations, back.stations):
        assert sb.station == sa.station
        assert sb.boarded == sa.boarded
        for field in ("q_mean", "q_var", "q_mean_se", "w_mean", "w_var",
                      "w_mean_se", "headway_mean", "headway_var"):
            va, vb = getattr(sa, field), getattr(sb, field)
            if math.isnan(va):
                assert math.isnan(vb)
            else:
                assert vb == pytest.approx(va, rel=1e-7, abs=1e-12)
    # files written before the layout was recorded read back as layout 0
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(text)
        del doc["rng_layout"]
        text = json.dumps(doc)
    else:
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("# rng_layout:"))
    path.write_text(text, encoding="utf-8")
    assert read_sim_stats(path).rng_layout == 0


def test_sim_csv_layout(small_stats):
    comments, header, rows = report._read_csv_text(
        report.render(report.SIM, report.sim_stats_to_json(small_stats)))
    assert header == SIM_COLUMNS
    assert comments["runs"] == "300"
    assert comments["seed"] == "17"
    # terminal station boards nobody: empty wait fields, zero count
    assert rows[-1][4] == "" and rows[-1][-1] == "0"


# ---------------------------------------------------------------------------
# comparison tables


@pytest.fixture(scope="module")
def small_table(reference_report, small_stats):
    return compare(reference_report, small_stats, tol_mean=0.5, tol_sd=0.8)


def test_comparison_csv(small_table):
    comments, header, rows = report._read_csv_text(
        report.render(report.COMPARISON, report.comparison_to_json(small_table)))
    assert header == COMPARISON_COLUMNS
    assert comments["tol_mean"] == "0.5"
    assert comments["passed"] in ("true", "false")
    statuses = {row[1] for row in rows}
    assert statuses <= {"pass", "fail", "excluded-unstable", "excluded-no-arrivals"}
    for row in rows:
        parse_value(row[2])  # numeric columns must parse


def test_comparison_row_fields_follow_the_columns():
    # comparison_to_json writes each row as dataclasses.astuple, so the
    # dataclass's field order is the column order
    pairs = [("station", "station"), ("status", "status"),
             ("eq_theory", "e_queue"), ("eq_sim", "e_queue_sim"),
             ("eq_gap", "e_queue_gap"), ("eq_tol", "e_queue_tol"),
             ("ew_theory", "e_wait"), ("ew_sim", "e_wait_sim"),
             ("ew_gap", "e_wait_gap"), ("ew_tol", "e_wait_tol"),
             ("q_sd_theory", "sd_queue"), ("q_sd_sim", "sd_queue_sim"),
             ("q_sd_rel_gap", "sd_queue_rel_gap"), ("w_sd_theory", "sd_wait"),
             ("w_sd_sim", "sd_wait_sim"), ("w_sd_rel_gap", "sd_wait_rel_gap")]
    assert [f.name for f in dataclasses.fields(ComparisonRow)] == [f for f, _ in pairs]
    assert COMPARISON_COLUMNS == [c for _, c in pairs]


def test_comparison_json(small_table):
    doc = json.loads(json.dumps(report.comparison_to_json(small_table)))
    assert doc["label"] == small_table.label
    assert doc["passed"] == small_table.passed
    assert len(doc["rows"]) == len(small_table.rows)
    terminal = doc["rows"][-1]
    assert terminal["status"] == "excluded-no-arrivals"
    assert terminal["e_wait_gap"] is None


# ---------------------------------------------------------------------------
# root dumps and sweeps


def test_roots_csv():
    roots = [1.0 + 0.0j, 0.25 - 0.5j]
    text = roots_to_csv(roots, [0.0, 1.5e-11], label="roots-demo")
    comments, header, rows = report._read_csv_text(text)
    assert comments["label"] == "roots-demo"
    assert header == ROOT_COLUMNS
    assert [parse_value(v) for v in rows[0]] == [1.0, 0.0, 1.0, 0.0, 0.0]
    re_, im, r, phi, resid = (parse_value(v) for v in rows[1])
    assert (re_, im) == (0.25, -0.5)
    assert r == pytest.approx(abs(roots[1]), rel=1e-8)
    assert 0.0 <= phi < 2.0 * math.pi
    assert phi == pytest.approx(math.atan2(-0.5, 0.25) % (2 * math.pi), rel=1e-8)
    assert resid == pytest.approx(1.5e-11, rel=1e-8)


def test_sweep_entries_bands(reference_report):
    entries = sweep_entries("gamma", 0.2, reference_report, "r.csv")
    assert len(entries) == 10
    first = entries[0]
    assert set(first) == set(SWEEP_COLUMNS)
    sm = reference_report.stations[0]
    sd = math.sqrt(sm.varq)
    assert first["queue_band_low"] == pytest.approx(sm.eq - 0.2 * sd)
    assert first["queue_band_high"] == pytest.approx(sm.eq + 0.2 * sd)
    assert first["report_file"] == "r.csv"


def test_sweep_entries_blank_bands_when_unstable(reference):
    inc = dataclasses.replace(reference.incidents, rate=1.0 / 3.0)
    rep = solver.analyze_route(
        dataclasses.replace(reference, incidents=inc, label="congested"))
    entries = sweep_entries("gamma", 1 / 3, rep, "x.csv")
    row = entries[4]
    assert row["stable"] is False
    assert math.isnan(row["queue_band_low"])
    assert math.isnan(row["wait_band_high"])


def test_sweep_index_csv(reference_report):
    entries = sweep_entries("theta", 1.0, reference_report, "f.csv")
    comments, header, rows = report._read_csv_text(
        sweep_index_to_csv(entries, label="sweep"))
    assert header == SWEEP_COLUMNS
    assert len(rows) == 10
    assert rows[0][0] == "theta"
    assert rows[0][-1] == "f.csv"
    assert comments["label"] == "sweep"
