"""Report serialization: CSV and JSON writers plus sniffing readers.

Numbers are printed with 9 significant digits and a '.' decimal separator.
Unbounded moments serialize as the literal string "inf"; undefined values
(e.g. wait at a station nobody boards) serialize as an empty CSV field or
JSON null.  CSV files open with '# key: value' comment lines carrying the
scenario label and run metadata.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from .headway import HeadwayModel
from .simulator import (ComparisonRow, ComparisonTable, SimStats,
                        StationSimStats)
from .solver import RouteReport, StationMetrics

ROUTE_COLUMNS = ["station", "rho", "stable", "e_queue", "var_queue",
                 "e_wait", "var_wait", "headway_mu", "headway_sigma", "zero_mass"]
SIM_COLUMNS = ["station", "e_queue_sim", "e_queue_se", "var_queue_sim",
               "e_wait_sim", "e_wait_se", "var_wait_sim",
               "headway_mu_sim", "headway_sigma_sim", "boarded"]
COMPARISON_COLUMNS = ["station", "status",
                      "e_queue", "e_queue_sim", "e_queue_gap", "e_queue_tol",
                      "e_wait", "e_wait_sim", "e_wait_gap", "e_wait_tol",
                      "sd_queue", "sd_queue_sim", "sd_queue_rel_gap",
                      "sd_wait", "sd_wait_sim", "sd_wait_rel_gap"]
ROOT_COLUMNS = ["re", "im", "r", "phi", "residual"]
SWEEP_COLUMNS = ["parameter", "value", "station", "stable",
                 "e_queue", "queue_band_low", "queue_band_high",
                 "e_wait", "wait_band_low", "wait_band_high", "report_file"]


def fmt_value(x) -> str:
    """One value to text: 9 significant digits, 'inf' sentinel, '' for NaN."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    xf = float(x)
    if math.isnan(xf):
        return ""
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return f"{xf:.9g}"


def parse_value(s: str) -> float:
    s = s.strip()
    if s == "":
        return math.nan
    if s == "inf":
        return math.inf
    if s == "-inf":
        return -math.inf
    return float(s)


def _json_num(x):
    xf = float(x)
    if math.isnan(xf):
        return None
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return xf


def _from_json_num(v) -> float:
    if v is None:
        return math.nan
    if isinstance(v, str):
        return parse_value(v)
    return float(v)


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _csv_text(comments: dict, header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    for key, val in comments.items():
        buf.write(f"# {key}: {val}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _read_csv_text(text: str) -> tuple[dict, list[str], list[list[str]]]:
    comments: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            stripped = line[1:].strip()
            if ":" in stripped:
                key, _, val = stripped.partition(":")
                comments[key.strip()] = val.strip()
            continue
        if line.strip():
            body.append(line)
    reader = csv.reader(body)
    rows = list(reader)
    if not rows:
        raise ValueError("empty CSV document")
    return comments, rows[0], rows[1:]


def _looks_like_json(text: str) -> bool:
    head = text.lstrip()
    return head.startswith("{") or head.startswith("[")


# ---------------------------------------------------------------------------
# Route reports


def _route_rows(report: RouteReport):
    for sm, hw in zip(report.stations, report.headway):
        yield [sm.station, sm.rho, sm.stable, sm.eq, sm.varq, sm.ew, sm.varw,
               hw.mu, hw.sigma, hw.zero_mass]


def route_report_to_csv(report: RouteReport) -> str:
    rows = [[fmt_value(v) for v in row] for row in _route_rows(report)]
    return _csv_text({"label": report.label}, ROUTE_COLUMNS, rows)


def route_report_to_json(report: RouteReport) -> dict:
    stations = []
    for row in _route_rows(report):
        rec = dict(zip(ROUTE_COLUMNS, row))
        for key in ROUTE_COLUMNS:
            if key == "station":
                rec[key] = int(rec[key])
            elif key == "stable":
                rec[key] = bool(rec[key])
            else:
                rec[key] = _json_num(rec[key])
        stations.append(rec)
    return {"label": report.label, "stations": stations}


def write_route_report(report: RouteReport, path, fmt: str = "csv") -> None:
    if fmt == "json":
        _write_text(path, json.dumps(route_report_to_json(report), indent=2) + "\n")
    else:
        _write_text(path, route_report_to_csv(report))


def _station_from_fields(vals: dict) -> tuple[StationMetrics, HeadwayModel]:
    stable = vals["stable"]
    ew = vals["e_wait"]
    # a stable station with undefined wait can only be one nobody travels to
    lam = 0.0 if (stable and math.isnan(ew)) else 1.0
    metrics = StationMetrics(
        station=int(vals["station"]), rho=vals["rho"], stable=stable,
        eq=vals["e_queue"], varq=vals["var_queue"], ew=ew, varw=vals["var_wait"],
        arrival_rate=lam)
    model = HeadwayModel(mu=vals["headway_mu"], sigma=vals["headway_sigma"],
                         zero_mass=vals["zero_mass"])
    return metrics, model


def read_route_report(path) -> RouteReport:
    """Load a report written by write_route_report (format sniffed).

    Round-trips the published columns only: root sets and queue fronts are
    not serialized, so the result is suitable for comparisons and plotting
    but not for resuming a solve.
    """
    text = Path(path).read_text(encoding="utf-8")
    stations: list[StationMetrics] = []
    models: list[HeadwayModel] = []
    if _looks_like_json(text):
        doc = json.loads(text)
        label = doc.get("label", "")
        for rec in doc["stations"]:
            vals = {k: rec[k] if k in ("station", "stable") else _from_json_num(rec[k])
                    for k in ROUTE_COLUMNS}
            sm, hw = _station_from_fields(vals)
            stations.append(sm)
            models.append(hw)
    else:
        comments, header, rows = _read_csv_text(text)
        if header != ROUTE_COLUMNS:
            raise ValueError(f"unexpected route report columns: {header}")
        label = comments.get("label", "")
        for row in rows:
            vals = dict(zip(header, row))
            for k in header:
                if k == "station":
                    vals[k] = int(vals[k])
                elif k == "stable":
                    vals[k] = vals[k] == "true"
                else:
                    vals[k] = parse_value(vals[k])
            sm, hw = _station_from_fields(vals)
            stations.append(sm)
            models.append(hw)
    return RouteReport(label=label, stations=tuple(stations), headway=tuple(models))


# ---------------------------------------------------------------------------
# Simulation stats


def _sim_rows(stats: SimStats):
    for st in stats.stations:
        sigma = math.sqrt(st.headway_var) if st.headway_var >= 0 else math.nan
        yield [st.station, st.q_mean, st.q_mean_se, st.q_var,
               st.w_mean, st.w_mean_se, st.w_var,
               st.headway_mean, sigma, st.boarded]


def sim_stats_to_csv(stats: SimStats) -> str:
    comments = {"label": stats.label, "runs": stats.runs,
                "seed": stats.seed, "warmup": stats.warmup,
                "rng_layout": stats.rng_layout}
    rows = [[fmt_value(v) for v in row] for row in _sim_rows(stats)]
    return _csv_text(comments, SIM_COLUMNS, rows)


def sim_stats_to_json(stats: SimStats) -> dict:
    stations = []
    for row in _sim_rows(stats):
        rec = dict(zip(SIM_COLUMNS, row))
        rec["station"] = int(rec["station"])
        rec["boarded"] = int(rec["boarded"])
        for key in SIM_COLUMNS:
            if key not in ("station", "boarded"):
                rec[key] = _json_num(rec[key])
        stations.append(rec)
    return {"label": stats.label, "runs": stats.runs, "seed": stats.seed,
            "warmup": stats.warmup, "rng_layout": stats.rng_layout,
            "stations": stations}


def write_sim_stats(stats: SimStats, path, fmt: str = "csv") -> None:
    if fmt == "json":
        _write_text(path, json.dumps(sim_stats_to_json(stats), indent=2) + "\n")
    else:
        _write_text(path, sim_stats_to_csv(stats))


def read_sim_stats(path) -> SimStats:
    """Load stats written by write_sim_stats (format sniffed).

    Files that predate the ``rng_layout`` field read back with layout 0.
    """
    text = Path(path).read_text(encoding="utf-8")
    stations: list[StationSimStats] = []
    if _looks_like_json(text):
        doc = json.loads(text)
        label = doc.get("label", "")
        runs = int(doc.get("runs", 0))
        seed = int(doc.get("seed", 0))
        warmup = float(doc.get("warmup", 0.0))
        rng_layout = int(doc.get("rng_layout", 0))
        recs = [{k: rec[k] if k in ("station", "boarded") else _from_json_num(rec[k])
                 for k in SIM_COLUMNS} for rec in doc["stations"]]
    else:
        comments, header, rows = _read_csv_text(text)
        if header != SIM_COLUMNS:
            raise ValueError(f"unexpected simulation stats columns: {header}")
        label = comments.get("label", "")
        runs = int(comments.get("runs", 0))
        seed = int(comments.get("seed", 0))
        warmup = float(comments.get("warmup", 0.0))
        rng_layout = int(comments.get("rng_layout", 0))
        recs = []
        for row in rows:
            vals = dict(zip(header, row))
            recs.append({k: int(vals[k]) if k in ("station", "boarded")
                         else parse_value(vals[k]) for k in header})
    for rec in recs:
        sigma = rec["headway_sigma_sim"]
        stations.append(StationSimStats(
            station=int(rec["station"]), q_mean=rec["e_queue_sim"],
            q_var=rec["var_queue_sim"], q_mean_se=rec["e_queue_se"],
            w_mean=rec["e_wait_sim"], w_var=rec["var_wait_sim"],
            w_mean_se=rec["e_wait_se"], headway_mean=rec["headway_mu_sim"],
            headway_var=sigma * sigma, boarded=int(rec["boarded"])))
    return SimStats(label=label, runs=runs, seed=seed, warmup=warmup,
                    stations=tuple(stations), rng_layout=rng_layout)


# ---------------------------------------------------------------------------
# Comparison tables


def _comparison_rows(table: ComparisonTable):
    for r in table.rows:
        yield [r.station, r.status, r.eq_theory, r.eq_sim, r.eq_gap, r.eq_tol,
               r.ew_theory, r.ew_sim, r.ew_gap, r.ew_tol,
               r.q_sd_theory, r.q_sd_sim, r.q_sd_rel_gap,
               r.w_sd_theory, r.w_sd_sim, r.w_sd_rel_gap]


def comparison_to_csv(table: ComparisonTable) -> str:
    comments = {"label": table.label, "tol_mean": fmt_value(table.tol_mean),
                "tol_sd": fmt_value(table.tol_sd),
                "passed": "true" if table.passed else "false"}
    rows = [[row[1] if i == 1 else fmt_value(row[i]) for i in range(len(row))]
            for row in _comparison_rows(table)]
    return _csv_text(comments, COMPARISON_COLUMNS, rows)


def comparison_to_json(table: ComparisonTable) -> dict:
    rows = []
    for row in _comparison_rows(table):
        rec = dict(zip(COMPARISON_COLUMNS, row))
        rec["station"] = int(rec["station"])
        for key in COMPARISON_COLUMNS[2:]:
            rec[key] = _json_num(rec[key])
        rows.append(rec)
    return {"label": table.label, "tol_mean": table.tol_mean,
            "tol_sd": table.tol_sd, "passed": table.passed, "rows": rows}


# ---------------------------------------------------------------------------
# Root dumps and sweep index


def roots_to_csv(roots, residuals, label: str) -> str:
    rows = []
    for z, resid in zip(roots, residuals):
        z = complex(z)
        rows.append([fmt_value(z.real), fmt_value(z.imag), fmt_value(abs(z)),
                     fmt_value(math.atan2(z.imag, z.real) % (2.0 * math.pi)),
                     fmt_value(resid)])
    return _csv_text({"label": label}, ROOT_COLUMNS, rows)


def sweep_index_to_csv(entries: list[dict], label: str) -> str:
    rows = [[entry[c] if c in ("parameter", "report_file")
             else fmt_value(entry[c]) for c in SWEEP_COLUMNS] for entry in entries]
    return _csv_text({"label": label}, SWEEP_COLUMNS, rows)


def write_sweep_index(entries: list[dict], path, label: str = "") -> None:
    _write_text(path, sweep_index_to_csv(entries, label))


def sweep_entries(parameter: str, value: float, report: RouteReport,
                  report_file: str) -> list[dict]:
    """Flatten one sweep point into index rows with mean +- 0.2 sd bands."""
    out = []
    for sm in report.stations:
        if sm.stable and math.isfinite(sm.varq):
            q_sd = math.sqrt(max(sm.varq, 0.0))
            q_lo, q_hi = sm.eq - 0.2 * q_sd, sm.eq + 0.2 * q_sd
        else:
            q_lo = q_hi = math.nan
        if sm.stable and math.isfinite(sm.varw):
            w_sd = math.sqrt(max(sm.varw, 0.0))
            w_lo, w_hi = sm.ew - 0.2 * w_sd, sm.ew + 0.2 * w_sd
        else:
            w_lo = w_hi = math.nan
        out.append({"parameter": parameter, "value": value, "station": sm.station,
                    "stable": sm.stable, "e_queue": sm.eq,
                    "queue_band_low": q_lo, "queue_band_high": q_hi,
                    "e_wait": sm.ew, "wait_band_low": w_lo, "wait_band_high": w_hi,
                    "report_file": report_file})
    return out
