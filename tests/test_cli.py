"""End-to-end subcommand tests driven through main(argv)."""

import dataclasses
import inspect
import json
import math
import multiprocessing
import os
import resource
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from transitq import model, report, solver
from transitq import roots as rootsmod
from transitq.cli import (EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_TOLERANCE,
                          build_parser, main)
from transitq.headway import y_pgf
from transitq.report import ROUTE_COLUMNS, SIM_COLUMNS
from transitq.roots import validate_root_set
from transitq.solver import analyze_route


@pytest.fixture()
def congested_config(tmp_path):
    sc = model.reference_scenario()
    inc = dataclasses.replace(sc.incidents, rate=1.0 / 3.0)
    sc = dataclasses.replace(sc, incidents=inc, label="congested")
    path = tmp_path / "congested.json"
    model.save_scenario(sc, path)
    return str(path)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_stdout_csv(capsys):
    assert main(["analyze", "--config", "reference"]) == EXIT_OK
    comments, header, rows = report._read_csv_text(capsys.readouterr().out)
    assert comments["label"] == "reference"
    assert header == ROUTE_COLUMNS
    assert len(rows) == 10


def test_analyze_json_to_file(tmp_path):
    out = tmp_path / "route.json"
    assert main(["analyze", "--format", "json", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["label"] == "reference"
    assert len(doc["stations"]) == 10
    assert doc["stations"][0]["stable"] is True


def test_analyze_accepts_scenario_file(tmp_path, capsys):
    sc = model.preset("reference-h4")
    path = tmp_path / "scenario.json"
    model.save_scenario(sc, path)
    assert main(["analyze", "--config", str(path)]) == EXIT_OK
    comments, _, _ = report._read_csv_text(capsys.readouterr().out)
    assert comments["label"] == sc.label


def test_analyze_unknown_config(capsys):
    assert main(["analyze", "--config", "no-such-preset"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "neither a readable file nor a preset" in err
    assert "reference" in err  # lists what would have worked


def test_analyze_invalid_scenario_file(tmp_path, capsys):
    sc = model.reference_scenario()
    doc = model.scenario_to_dict(sc)
    doc["incidents"]["gamma"] = -2.0
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_congested_still_reports(congested_config, capsys):
    # instability is an answer, not an error: the report carries sentinels
    assert main(["analyze", "--config", congested_config]) == EXIT_OK
    _, _, rows = report._read_csv_text(capsys.readouterr().out)
    assert rows[4][2] == "false"
    assert rows[4][3] == "inf"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_stdout(capsys):
    assert main(["simulate", "--runs", "300", "--seed", "9"]) == EXIT_OK
    comments, header, rows = report._read_csv_text(capsys.readouterr().out)
    assert header == SIM_COLUMNS
    assert comments["runs"] == "300"
    assert len(rows) == 10


def test_simulate_run_floor(capsys):
    assert main(["simulate", "--runs", "50"]) == EXIT_INPUT
    assert "at least 100 vehicles" in capsys.readouterr().err


def test_simulate_json(tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--runs", "200", "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    back = report.read_sim_stats(out)
    assert back.runs == 200
    assert len(back.stations) == 10


# ---------------------------------------------------------------------------
# compare


def _analyze_to(path, config="reference"):
    assert main(["analyze", "--config", config, "--out", str(path)]) == EXIT_OK


def test_compare_theory_against_itself(tmp_path, capsys):
    th = tmp_path / "theory.csv"
    _analyze_to(th)
    code = main(["compare", "--theory", str(th), "--sim", str(th)])
    comments, _, rows = report._read_csv_text(capsys.readouterr().out)
    assert code == EXIT_OK
    assert comments["passed"] == "true"
    assert {r[1] for r in rows} == {"pass", "excluded-no-arrivals"}


def test_compare_json_theory_against_itself(tmp_path):
    # a route report given as --sim is read as one after the stats reader fails
    th = tmp_path / "theory.json"
    assert main(["analyze", "--format", "json", "--out", str(th)]) == EXIT_OK
    assert main(["compare", "--theory", str(th), "--sim", str(th)]) == EXIT_OK


def test_compare_flags_perturbed_report(tmp_path, capsys):
    th = tmp_path / "theory.csv"
    _analyze_to(th)
    doctored = tmp_path / "doctored.csv"
    text = th.read_text()
    comments, header, rows = report._read_csv_text(text)
    rows[2][3] = fmtd = report.fmt_value(float(rows[2][3]) * 2.0 + 5.0)
    doctored.write_text(report._csv_text(comments, header, rows))
    code = main(["compare", "--theory", str(th), "--sim", str(doctored)])
    out = capsys.readouterr().out
    assert code == EXIT_TOLERANCE
    _, _, out_rows = report._read_csv_text(out)
    assert out_rows[2][1] == "fail"
    assert out_rows[2][3] == fmtd


def test_compare_real_simulation(tmp_path):
    th = tmp_path / "theory.csv"
    sim = tmp_path / "sim.csv"
    out = tmp_path / "cmp.json"
    _analyze_to(th)
    assert main(["simulate", "--runs", "2000", "--out", str(sim)]) == EXIT_OK
    code = main(["compare", "--theory", str(th), "--sim", str(sim),
                 "--tol-mean", "0.9", "--tol-var", "5.0",
                 "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["tol_mean"] == 0.9


@pytest.mark.parametrize("tols", [["--tol-mean", "-1"],
                                  ["--tol-mean", "nan", "--tol-var", "nan"]])
def test_compare_rejects_negative_or_nan_tolerance(tmp_path, capsys, tols):
    th = tmp_path / "theory.json"
    assert main(["analyze", "--format", "json", "--out", str(th)]) == EXIT_OK
    assert main(["compare", "--theory", str(th), "--sim", str(th), *tols]) == EXIT_INPUT
    assert "tolerances must be non-negative" in _assert_one_error_line(capsys)


def test_compare_option_defaults_are_the_library_defaults():
    # the parser keeps its own copy so that it need not import the simulator
    from transitq.simulator import compare
    args = build_parser().parse_args(["compare", "--theory", "t", "--sim", "s"])
    defaults = inspect.signature(compare).parameters
    assert args.tol_mean == defaults["tol_mean"].default
    assert args.tol_var == defaults["tol_sd"].default


def test_compare_label_mismatch(tmp_path, capsys, congested_config):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _analyze_to(a)
    _analyze_to(b, config=congested_config)
    assert main(["compare", "--theory", str(a), "--sim", str(b)]) == EXIT_INPUT
    assert "label mismatch" in capsys.readouterr().err


def test_compare_missing_file(tmp_path, capsys):
    th = tmp_path / "theory.csv"
    _analyze_to(th)
    assert main(["compare", "--theory", str(th),
                 "--sim", str(tmp_path / "absent.csv")]) == EXIT_INPUT


def test_compare_theory_record_that_is_not_an_object(tmp_path, capsys):
    th = tmp_path / "theory.json"
    th.write_text(json.dumps({"label": "x", "stations": [1, 2]}))
    assert main(["compare", "--theory", str(th), "--sim", str(th)]) == EXIT_INPUT
    assert "route report record 1 is not an object" in _assert_one_error_line(capsys)


def test_compare_sim_stats_with_null_runs(tmp_path, capsys):
    th = tmp_path / "theory.json"
    sim = tmp_path / "sim.json"
    assert main(["analyze", "--format", "json", "--out", str(th)]) == EXIT_OK
    assert main(["simulate", "--runs", "200", "--format", "json", "--out", str(sim)]) == EXIT_OK
    doc = json.loads(sim.read_text())
    doc["runs"] = None
    sim.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="simulation stats metadata has a value of the wrong"):
        report.read_sim_stats(sim)
    # the route-report reader rejects the file too; the error is the stats
    # reader's, which names the field, not the fallback's missing column
    assert main(["compare", "--theory", str(th), "--sim", str(sim)]) == EXIT_INPUT
    assert _assert_one_error_line(capsys).rstrip().endswith(
        "simulation stats metadata has a value of the wrong type: runs = None")


# ---------------------------------------------------------------------------
# roots


def test_roots_dump(tmp_path):
    out = tmp_path / "roots.csv"
    assert main(["roots", "--station", "2", "--out", str(out)]) == EXIT_OK
    comments, header, rows = report._read_csv_text(out.read_text())
    assert comments["label"] == "reference"
    assert header == report.ROOT_COLUMNS
    assert len(rows) >= 2
    radii = [report.parse_value(r[2]) for r in rows]
    residuals = [report.parse_value(r[4]) for r in rows]
    assert max(radii) <= 1.0 + 1e-9
    assert max(residuals) < 1e-8
    assert any(abs(report.parse_value(r[0]) - 1.0) < 1e-12
               and abs(report.parse_value(r[1])) < 1e-12 for r in rows)


def test_roots_serves_stored_root_set(tmp_path, monkeypatch):
    # the dump is the station's pending root set, searched for once when the
    # command reads it; no other station's set is searched for
    first = tmp_path / "first.csv"
    assert main(["roots", "--station", "4", "--out", str(first)]) == EXIT_OK
    calls = []
    search = solver.find_all_roots

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(solver, "find_all_roots", counted)
    second = tmp_path / "second.csv"
    assert main(["roots", "--station", "4", "--out", str(second)]) == EXIT_OK
    assert second.read_text() == first.read_text()
    assert len(calls) == 1


def test_roots_residual_column_is_the_certificates(tmp_path):
    # the dump prints the |Den| residuals that validate_root_set gated
    out = tmp_path / "roots.csv"
    assert main(["roots", "--station", "4", "--out", str(out)]) == EXIT_OK
    rep = analyze_route(model.reference_scenario())
    sm = rep.stations[3]
    y = partial(y_pgf, lam=sm.arrival_rate, model=rep.headway[3])
    den_resid = rootsmod.root_residuals(sm.roots, sm.service_dist.probs, y)[1]
    _, _, rows = report._read_csv_text(out.read_text())
    assert [r[4] for r in rows] == [report.fmt_value(r) for r in den_resid]


@pytest.mark.parametrize("station", [0, 11])
def test_roots_station_out_of_range(station, capsys):
    assert main(["roots", "--station", str(station)]) == EXIT_INPUT
    assert "outside 1..10" in capsys.readouterr().err


def test_roots_unstable_station(congested_config, capsys):
    assert main(["roots", "--config", congested_config,
                 "--station", "5"]) == EXIT_NUMERIC
    assert "unstable" in capsys.readouterr().err


def test_roots_station_without_arrivals(tmp_path):
    # the terminal station has no boarding demand, so analyze_route stores no
    # root set; the command finds the C roots of z^C = P(z) itself
    out = tmp_path / "roots.csv"
    assert main(["roots", "--station", "10", "--out", str(out)]) == EXIT_OK
    sm = analyze_route(model.reference_scenario()).stations[9]
    assert sm.arrival_rate == 0.0 and not sm.roots
    _, header, rows = report._read_csv_text(out.read_text())
    assert header == report.ROOT_COLUMNS
    assert len(rows) == sm.service_dist.top_index == 34
    assert max(report.parse_value(r[4]) for r in rows) < 1e-12
    # the dump (9 significant digits) is a certified root set
    probs = sm.service_dist.probs
    rs = rootsmod.find_all_roots(probs, lambda z: np.ones_like(z), 0.0)
    assert validate_root_set(rs, probs, lambda z: np.ones_like(z)) == []
    dumped = np.array([complex(report.parse_value(r[0]), report.parse_value(r[1]))
                       for r in rows])
    assert np.max(np.abs(dumped - np.array(rs))) < 1e-8


def test_roots_station_without_arrivals_it_cannot_certify(tmp_path, capsys):
    # station 1 fills every vehicle, and at alpha = 5e-324 nobody alights at
    # station 2, so its space pmf is s_0 = 1, a subnormal s_1 and zeros above:
    # z^C = P(z) has a multiple root at z = 0 that no certified set holds.
    # The command ends in one error line and exit 3, not in a traceback
    route = model.RouteConfig(stations=(
        model.StationParams(arrival_rate=20.0, alight_prob=1.0),
        model.StationParams(arrival_rate=0.0, alight_prob=5e-324)),
        nominal_headway=6.0, capacity=34)
    sc = model.Scenario(route=route, incidents=model.IncidentParams(1.0, 0.496))
    path = tmp_path / "full.json"
    model.save_scenario(sc, path)
    sm = analyze_route(sc).stations[1]
    assert sm.stable and sm.arrival_rate == 0.0
    assert main(["roots", "--config", str(path), "--station", "2"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: station 2: ")


def test_roots_where_the_root_set_does_not_certify(tmp_path, capsys):
    # fuzz-corpus draw 27: its station 4 (C = 34) is solved and reported, but
    # the root search finds 33 of its 34 roots; the dump ends in exit 3 and
    # one error line naming the station, not in a traceback
    import test_fuzz
    sc = test_fuzz.corpus()[27]
    path = tmp_path / "draw27.json"
    model.save_scenario(sc, path)
    assert main(["analyze", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["roots", "--config", str(path), "--station", "4"]) == EXIT_NUMERIC
    err = _assert_one_error_line(capsys)
    assert err.startswith("error: station 4: root set validation failed")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_serial(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--param", "gamma", "--values", "0.0, 0.2",
                 "--out", str(out), "--jobs", "1"]) == EXIT_OK
    comments, header, rows = report._read_csv_text((out / "index.csv").read_text())
    assert header == report.SWEEP_COLUMNS
    assert comments["label"] == "reference"
    assert len(rows) == 20
    assert (out / "gamma_0.csv").exists()
    assert (out / "gamma_0.2.csv").exists()
    back = report.read_route_report(out / "gamma_0.2.csv")
    assert len(back.stations) == 10
    # the swept label records the point
    assert back.label == "reference:gamma=0.2"


def test_sweep_values_equal_to_six_digits_get_their_own_files(tmp_path):
    # both values print as 0.123456 under %g, so each file keeps the exact value
    out = tmp_path / "sweep"
    assert main(["sweep", "--param", "gamma", "--values", "0.1234561,0.1234562",
                 "--out", str(out), "--jobs", "1"]) == EXIT_OK
    names = {"0.1234561": "gamma_0.1234561.csv", "0.1234562": "gamma_0.1234562.csv"}
    assert sorted(p.name for p in out.glob("gamma_*")) == sorted(names.values())
    _, header, rows = report._read_csv_text((out / "index.csv").read_text())
    value, report_file = header.index("value"), header.index("report_file")
    assert len(rows) == 20
    for row in rows:
        assert row[report_file] == names[row[value]]
    for val, name in names.items():
        assert report.read_route_report(out / name).label == f"reference:gamma={val}"


def test_sweep_parallel_with_simulation(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--param", "theta", "--values", "1.0,2.0",
                 "--out", str(out), "--jobs", "2", "--simulate",
                 "--runs", "300", "--format", "json"]) == EXIT_OK
    assert (out / "theta_1.json").exists()
    assert (out / "theta_2.json").exists()
    assert (out / "theta_1_sim.json").exists()
    stats = report.read_sim_stats(out / "theta_2_sim.json")
    assert stats.runs == 300


def test_sweep_capacity_requires_integers(tmp_path, capsys):
    assert main(["sweep", "--param", "capacity", "--values", "32.5",
                 "--out", str(tmp_path / "s")]) == EXIT_INPUT
    assert "not an integer" in capsys.readouterr().err


def test_sweep_capacity_rejects_infinity(tmp_path, capsys):
    assert main(["sweep", "--param", "capacity", "--values", "inf",
                 "--out", str(tmp_path / "s")]) == EXIT_INPUT
    assert "not an integer" in capsys.readouterr().err


def test_sweep_empty_values(tmp_path, capsys):
    assert main(["sweep", "--param", "gamma", "--values", " , ",
                 "--out", str(tmp_path / "s")]) == EXIT_INPUT
    assert "no sweep values" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    out = tmp_path / "s"
    assert main(["sweep", "--param", "gamma", "--values", "0.1,0.2",
                 "--out", str(out), "--jobs", jobs]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not out.exists()


def test_sweep_unknown_parameter(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--param", "bogus", "--values", "1",
              "--out", str(tmp_path / "s")])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# exit-code contract: failures end in one error line, never a traceback


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", [["analyze"], ["simulate", "--runs", "200"],
                                     ["roots", "--station", "2"]])
def test_unwritable_out_is_an_input_error(command, tmp_path, capsys):
    out = tmp_path / "missing-dir" / "out.csv"
    assert main(command + ["--out", str(out)]) == EXIT_INPUT
    _assert_one_error_line(capsys)


def test_config_directory_is_an_input_error(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path)]) == EXIT_INPUT
    _assert_one_error_line(capsys)


def test_near_empty_station_is_a_numeric_error(tmp_path, capsys):
    # station 2 sees 1e-200 arrivals a minute, so the square of its mean
    # arrivals per headway underflows in the wait moments: exit 3 and one
    # line naming the station, not "float division by zero" without one
    route = model.RouteConfig(stations=(
        model.StationParams(arrival_rate=1.0, alight_prob=0.0),
        model.StationParams(arrival_rate=1e-200, alight_prob=1.0)),
        nominal_headway=0.5, capacity=5)
    path = tmp_path / "near-empty.json"
    model.save_scenario(model.Scenario(route=route, incidents=model.IncidentParams(0.0, 1.0)),
                        path)
    assert main(["analyze", "--config", str(path)]) == EXIT_NUMERIC
    assert _assert_one_error_line(capsys).startswith("error: station 2: ")


def _config_with(tmp_path, **fields):
    """The reference config with route, station-1 or incident fields replaced."""
    doc = model.scenario_to_dict(model.reference_scenario())
    sections = {"lambda": doc["route"]["stations"][0],
                "gamma": doc["incidents"], "theta": doc["incidents"]}
    for key, value in fields.items():
        sections.get(key, doc["route"])[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity and reads them back
    return str(path)


@pytest.mark.parametrize("command", [["analyze"], ["simulate", "--runs", "200"]])
@pytest.mark.parametrize("fields, fragment", [
    pytest.param({"lambda": math.nan}, "must be finite", id="lambda-NaN"),
    # capacity is read as an integer, so the document itself is malformed
    pytest.param({"capacity": math.inf}, "malformed scenario document",
                 id="capacity-Infinity"),
    pytest.param({"nominal_headway": math.nan}, "must be finite", id="nominal_headway-NaN"),
    pytest.param({"demand_factor": -math.inf}, "must be finite",
                 id="demand_factor--Infinity"),
    # finite fields whose derived quantities are not
    pytest.param({"lambda": 1e300, "demand_factor": 1e10},
                 "scaled arrival rate (lambda * demand_factor) must be finite",
                 id="scaled-rate-overflows"),
    pytest.param({"theta": 1e-200}, "headway variance 4*T_N*gamma/theta^2 must be finite",
                 id="theta-squared-underflows"),
    pytest.param({"gamma": 1e300, "theta": 1e-10}, "adjusted headway must be finite",
                 id="adjusted-headway-overflows"),
    # the cube of the headway mean, or of the rate, overflows in the arrival moments
    pytest.param({"theta": 1e-150}, "station 1: arrival-count moments per headway",
                 id="headway-cube-overflows"),
    pytest.param({"lambda": 1e150}, "station 1: arrival-count moments per headway",
                 id="rate-cube-overflows"),
])
def test_non_finite_config_is_an_input_error(command, fields, fragment, tmp_path, capsys):
    assert main(command + ["--config", _config_with(tmp_path, **fields)]) == EXIT_INPUT
    assert fragment in _assert_one_error_line(capsys)


def test_simulate_refuses_an_incident_mean_numpy_cannot_draw(tmp_path, capsys):
    # gamma * T = 1e100 * 5 min is above the largest Poisson mean numpy
    # accepts (about 9.22e18); the refusal names the station and the draw
    config = _config_with(tmp_path, gamma=1e100, theta=1.0)
    assert main(["simulate", "--runs", "200", "--config", config]) == EXIT_INPUT
    assert _assert_one_error_line(capsys) == (
        "error: station 1: the incident-count draw needs a Poisson mean "
        "gamma * T = 5e+100, above numpy's limit 9.22e+18\n")


def _cap_address_space():
    """Run in a child process before exec: at most 1 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))


def test_simulate_refuses_a_queue_beyond_memory(tmp_path):
    # at theta = 1e-6 an incident lasts about 1e6 minutes, so 200 vehicles
    # that carry 6,800 passengers take about 2.9e8 minutes to pass station 1,
    # where 1.7e8 passengers arrive.  Their arrival times would take 1.4 GB;
    # the command must stop before drawing any, and it runs in a child whose
    # address space is capped at 1 GiB so that a missing refusal fails fast
    config = _config_with(tmp_path, theta=1e-6)
    proc = subprocess.run(
        [sys.executable, "-m", "transitq.cli", "simulate", "--runs", "200", "--config", config],
        capture_output=True, text=True, preexec_fn=_cap_address_space, timeout=120)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert proc.stderr == ("error: station 1: the arrival draw expects 1.71e+08 passengers, "
                           "more than 1e+08 beyond the 6800 that 200 vehicles of capacity 34 "
                           "can carry\n")


def test_simulate_out_of_memory_is_an_input_error():
    # 200 million vehicles need a 1.5 GB delay array, more than a child capped
    # at 1 GiB of address space can allocate; the command says so on one line
    proc = subprocess.run(
        [sys.executable, "-m", "transitq.cli", "simulate", "--runs", "200000000"],
        capture_output=True, text=True, preexec_fn=_cap_address_space, timeout=120)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["analyze"], ["simulate", "--runs", "200"]])
def test_fractional_capacity_is_an_input_error(command, tmp_path, capsys):
    assert main(command + ["--config", _config_with(tmp_path, capacity=34.5)]) == EXIT_INPUT
    assert "'capacity': 34.5 is not a whole number" in _assert_one_error_line(capsys)


@pytest.mark.parametrize("command", [["analyze"], ["simulate", "--runs", "200"]])
@pytest.mark.parametrize("field", ["capacity", "lambda"])
def test_boolean_number_is_an_input_error(command, field, tmp_path, capsys):
    config = _config_with(tmp_path, **{field: True})
    assert main(command + ["--config", config]) == EXIT_INPUT
    assert f"'{field}': true is not a number" in _assert_one_error_line(capsys)


def test_sweep_out_under_a_file_is_an_input_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["sweep", "--param", "gamma", "--values", "0.1",
                 "--out", str(blocker / "sweep")]) == EXIT_INPUT
    _assert_one_error_line(capsys)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers inherit the patched root finder only when forked")
def test_parallel_sweep_reports_station_failure_like_serial(tmp_path, monkeypatch, capsys):
    def failing_solve(probs, y_handle):
        raise rootsmod.SolverError("no circle passed: census counts winding 1.000, not 0")

    monkeypatch.setattr(solver, "factorize", failing_solve)
    errors = []
    for jobs in ("1", "2"):
        assert main(["sweep", "--param", "demand_factor", "--values", "0.6,0.8",
                     "--out", str(tmp_path / f"jobs{jobs}"), "--jobs", jobs]) == EXIT_NUMERIC
        errors.append(_assert_one_error_line(capsys))
    assert "station 1: no circle passed" in errors[0]
    assert errors[1] == errors[0]


# ---------------------------------------------------------------------------
# packaging smoke test


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "transitq.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for word in ("analyze", "simulate", "sweep", "compare", "roots"):
        assert word in proc.stdout


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the test oracles
    code = ("import sys, transitq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # only a parallel sweep needs concurrent.futures.process; it is imported there
    code = "import sys, transitq.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_commands_run_with_one_blas_thread_unless_told_otherwise(preset, seen):
    # a command finds the variable set and numpy not yet loaded, so OpenBLAS
    # starts with one thread, and so do forked sweep workers; a count the
    # caller set is kept
    code = ("import os, sys\n"
            "from transitq import cli\n"
            "cli.cmd_analyze = lambda args: print(os.environ['OPENBLAS_NUM_THREADS'],\n"
            "                                     'numpy' in sys.modules)\n"
            "cli.main(['analyze'])\n")
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{seen} False\n"


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_main_leaves_the_environment_as_it_found_it(monkeypatch, tmp_path, preset, seen):
    # the one-thread setting holds only while the command runs, so an
    # in-process caller's later child processes start as if main never ran,
    # whether the command returns, raises or fails to parse
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    before = dict(os.environ)
    assert main(["analyze", "--out", str(tmp_path / "reference.csv")]) == 0
    assert dict(os.environ) == before

    def fail(args):
        raise KeyError(os.environ["OPENBLAS_NUM_THREADS"])

    monkeypatch.setattr("transitq.cli.cmd_analyze", fail)
    with pytest.raises(KeyError, match=f"^'{seen}'$"):
        main(["analyze"])
    assert dict(os.environ) == before
    with pytest.raises(SystemExit):
        main(["analyze", "--no-such-option"])
    assert dict(os.environ) == before


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    code += "\nimport sys; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    loaded = _modules_after("import transitq")
    assert sorted(m for m in loaded if m.startswith("transitq.")) == []


@pytest.mark.parametrize("argv, absent", [
    (["simulate", "--runs", "100"], {"transitq.solver", "transitq.roots"}),
    (["analyze"], {"transitq.simulator", "numpy.random"}),
], ids=["simulate", "analyze"])
def test_command_loads_only_what_it_runs(argv, absent):
    loaded = _modules_after(f"from transitq.cli import main\nassert main({argv!r}) == 0")
    assert "transitq.cli" in loaded
    assert loaded.isdisjoint(absent), sorted(loaded & absent)


def test_package_names_resolve_on_access():
    # in a fresh interpreter, so that every name goes through the package's
    # lazy lookup rather than an attribute an earlier import has set
    code = """
import importlib, transitq
for sub in ("cli", "headway", "model", "report", "roots", "simulator", "solver"):
    assert getattr(transitq, sub) is importlib.import_module("transitq." + sub), sub
for name in transitq.__all__:
    value = getattr(transitq, name)
    assert value is getattr(importlib.import_module("transitq." + transitq._HOMES[name]), name)
try:
    transitq.no_such_name
except AttributeError as exc:
    print(exc)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'transitq' has no attribute 'no_such_name'\n"
