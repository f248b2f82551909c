"""End-to-end subcommand tests driven through main(argv)."""

import dataclasses
import json
import math
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest

from transitq import cli, model, report, solver
from transitq import roots as rootsmod
from transitq.cli import (EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_TOLERANCE,
                          main)
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
    # the dump is the root set analyze_route stored; no second search runs
    first = tmp_path / "first.csv"
    assert main(["roots", "--station", "4", "--out", str(first)]) == EXIT_OK

    def no_search(*args, **kwargs):
        raise AssertionError("the roots command searched for roots again")

    monkeypatch.setattr(cli, "find_all_roots", no_search, raising=False)
    monkeypatch.setattr(rootsmod, "find_all_roots", no_search)
    second = tmp_path / "second.csv"
    assert main(["roots", "--station", "4", "--out", str(second)]) == EXIT_OK
    assert second.read_text() == first.read_text()


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
    assert len(rows) == sm.effective_capacity
    assert max(report.parse_value(r[4]) for r in rows) < 1e-12
    # the dump (9 significant digits) is a certified root set
    probs = sm.service_dist.probs[: sm.effective_capacity + 1]
    rs = rootsmod.find_all_roots(probs, lambda z: np.ones_like(z), 0.0)
    assert validate_root_set(rs, probs, lambda z: np.ones_like(z)) == []
    dumped = np.array([complex(report.parse_value(r[0]), report.parse_value(r[1]))
                       for r in rows])
    assert np.max(np.abs(dumped - np.array(rs))) < 1e-8


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


def test_sweep_out_under_a_file_is_an_input_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["sweep", "--param", "gamma", "--values", "0.1",
                 "--out", str(blocker / "sweep")]) == EXIT_INPUT
    _assert_one_error_line(capsys)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers inherit the patched root finder only when forked")
def test_parallel_sweep_reports_station_failure_like_serial(tmp_path, monkeypatch, capsys):
    def failing_search(probs, y_handle, rho):
        raise rootsmod.RootSearchError("expected 34 roots, have 33", found=33,
                                       needed=34)

    monkeypatch.setattr(solver, "find_all_roots", failing_search)
    errors = []
    for jobs in ("1", "2"):
        assert main(["sweep", "--param", "demand_factor", "--values", "0.6,0.8",
                     "--out", str(tmp_path / f"jobs{jobs}"), "--jobs", jobs]) == EXIT_NUMERIC
        errors.append(_assert_one_error_line(capsys))
    assert "station 1: expected 34 roots" in errors[0]
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
