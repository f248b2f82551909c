"""Report files: one table codec behind every CSV and JSON document.

Each document kind (route report, simulation stats, comparison table, root
dump, sweep index) is a ``Table``: its columns, the columns that hold ints,
bools or strings (the rest are floats), its metadata keys with their types
and the key of its record list in JSON.  Builders turn a result object into
a JSON-shaped document; ``render`` prints that document as CSV or JSON and
``read_table`` sniffs a file and returns its typed metadata and records.

Numbers are printed with 9 significant digits and a '.' decimal separator.
Unbounded moments serialize as the literal string "inf"; undefined values
(e.g. wait at a station nobody boards) serialize as an empty CSV field or
JSON null.  CSV files open with '# key: value' comment lines carrying the
metadata; JSON files carry it as top-level keys ahead of the record list.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .simulator import ComparisonTable, SimStats
    from .solver import RouteReport

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


@dataclass(frozen=True)
class Table:
    """One document kind; columns not named in ``types`` hold floats, and
    ``meta`` maps each metadata key to its type."""

    name: str
    columns: list[str]
    types: dict = field(default_factory=dict)
    meta: dict = field(default_factory=lambda: {"label": str})
    key: str = "stations"


ROUTE = Table("route report", ROUTE_COLUMNS, {"station": int, "stable": bool})
SIM = Table("simulation stats", SIM_COLUMNS, {"station": int, "boarded": int},
            {"label": str, "runs": int, "seed": int, "warmup": float, "rng_layout": int})
COMPARISON = Table("comparison table", COMPARISON_COLUMNS,
                   {"station": int, "status": str},
                   {"label": str, "tol_mean": float, "tol_sd": float, "passed": bool}, "rows")
ROOTS = Table("root dump", ROOT_COLUMNS, key="roots")
SWEEP = Table("sweep index", SWEEP_COLUMNS,
              {"parameter": str, "station": int, "stable": bool, "report_file": str},
              key="rows")


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
# The codec


def encode(table: Table, meta: dict, rows) -> dict:
    """The JSON-shaped document: metadata keys, then records typed per column."""
    def cell(col, v):
        kind = table.types.get(col, float)
        return _json_num(v) if kind is float else v if kind is str else kind(v)

    records = [{c: cell(c, v) for c, v in zip(table.columns, row)} for row in rows]
    return {**{k: meta[k] for k in table.meta}, table.key: records}


def _csv_cell(v) -> str:
    return "" if v is None else v if isinstance(v, str) else fmt_value(v)


def render(table: Table, doc: dict, fmt: str = "csv") -> str:
    """Print an encoded document as indented JSON or as commented CSV."""
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    comments = {k: _csv_cell(doc[k]) for k in table.meta}
    rows = [[_csv_cell(rec[c]) for c in table.columns] for rec in doc[table.key]]
    return _csv_text(comments, table.columns, rows)


def _parse(kind, v, from_json: bool):
    """A JSON value or a CSV field back to the column's type.  A bool column
    takes only true/false, an int column only an integer and a str column
    only a string, and no column takes a JSON boolean for a number; anything
    else raises ValueError."""
    if kind is bool and (isinstance(v, bool) if from_json else v in ("true", "false")):
        return v is True or v == "true"
    if kind is int and (type(v) is int if from_json else re.fullmatch(r"[+-]?[0-9]+", v)):
        return int(v)
    if kind is str and isinstance(v, str):
        return v
    if kind is not float or isinstance(v, bool):
        raise ValueError(f"not a {kind.__name__}")
    return math.nan if v is None else parse_value(v) if isinstance(v, str) else float(v)


def read_table(table: Table, path) -> tuple[dict, list[dict]]:
    """Typed metadata and records of a document (CSV or JSON, sniffed); each
    metadata value is read by the rules of a column of its type."""
    text = Path(path).read_text(encoding="utf-8")
    from_json = _looks_like_json(text)
    if from_json:
        doc = json.loads(text)
        if not isinstance(doc, dict) or not isinstance(doc.get(table.key), list):
            raise ValueError(f"{table.name} JSON has no {table.key!r} list")
        meta, records = doc, doc[table.key]
    else:
        meta, header, rows = _read_csv_text(text)
        if header != table.columns:
            raise ValueError(f"unexpected {table.name} columns: {header}")
        records = [dict(zip(header, row)) for row in rows]
    typed = []
    for rec in records:
        if not isinstance(rec, dict):
            raise ValueError(f"{table.name} record {rec!r} is not an object")
        missing = [c for c in table.columns if c not in rec]
        if missing:
            raise ValueError(f"{table.name} record lacks column {missing[0]!r}")
        row = {}
        for c in table.columns:
            try:
                row[c] = _parse(table.types.get(c, float), rec[c], from_json)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{table.name} record has a value of the wrong type: "
                                 f"{c} = {rec[c]!r}") from exc
        typed.append(row)
    head = {}
    for k, kind in table.meta.items():
        if k in meta:
            try:
                head[k] = _parse(kind, meta[k], from_json)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{table.name} metadata has a value of the wrong type: "
                                 f"{k} = {meta[k]!r}") from exc
    return head, typed


# ---------------------------------------------------------------------------
# Route reports


def route_report_to_json(report: RouteReport) -> dict:
    return encode(ROUTE, {"label": report.label}, (
        [sm.station, sm.rho, sm.stable, sm.eq, sm.varq, sm.ew, sm.varw,
         hw.mu, hw.sigma, hw.zero_mass]
        for sm, hw in zip(report.stations, report.headway)))


def write_route_report(report: RouteReport, path, fmt: str = "csv") -> None:
    Path(path).write_text(render(ROUTE, route_report_to_json(report), fmt), encoding="utf-8")


def read_route_report(path) -> RouteReport:
    """Load a report written by write_route_report (format sniffed).

    Round-trips the published columns only: root sets, queue fronts and
    arrival rates (read back as NaN) are not serialized, so the result suits
    comparisons and plotting but not resuming a solve.
    """
    from .headway import HeadwayModel
    from .solver import RouteReport, StationMetrics
    meta, records = read_table(ROUTE, path)
    stations = tuple(StationMetrics(
        station=rec["station"], rho=rec["rho"], stable=rec["stable"], eq=rec["e_queue"],
        varq=rec["var_queue"], ew=rec["e_wait"], varw=rec["var_wait"], arrival_rate=math.nan)
        for rec in records)
    models = tuple(HeadwayModel(mu=rec["headway_mu"], sigma=rec["headway_sigma"],
                                zero_mass=rec["zero_mass"]) for rec in records)
    return RouteReport(label=meta.get("label", ""), stations=stations, headway=models)


# ---------------------------------------------------------------------------
# Simulation stats


def sim_stats_to_json(stats: SimStats) -> dict:
    meta = {"label": stats.label, "runs": stats.runs, "seed": stats.seed,
            "warmup": stats.warmup, "rng_layout": stats.rng_layout}
    return encode(SIM, meta, (
        [st.station, st.q_mean, st.q_mean_se, st.q_var,
         st.w_mean, st.w_mean_se, st.w_var, st.headway_mean,
         math.sqrt(st.headway_var) if st.headway_var >= 0 else math.nan, st.boarded]
        for st in stats.stations))


def write_sim_stats(stats: SimStats, path, fmt: str = "csv") -> None:
    Path(path).write_text(render(SIM, sim_stats_to_json(stats), fmt), encoding="utf-8")


def read_sim_stats(path) -> SimStats:
    """Load stats written by write_sim_stats (format sniffed).

    Files that predate the ``rng_layout`` field read back with layout 0.
    """
    from .simulator import SimStats, StationSimStats
    meta, records = read_table(SIM, path)
    stations = tuple(StationSimStats(
        station=rec["station"], q_mean=rec["e_queue_sim"],
        q_var=rec["var_queue_sim"], q_mean_se=rec["e_queue_se"],
        w_mean=rec["e_wait_sim"], w_var=rec["var_wait_sim"],
        w_mean_se=rec["e_wait_se"], headway_mean=rec["headway_mu_sim"],
        headway_var=rec["headway_sigma_sim"] * rec["headway_sigma_sim"],
        boarded=rec["boarded"])
        for rec in records)
    return SimStats(label=meta.get("label", ""), stations=stations, runs=meta.get("runs", 0),
                    seed=meta.get("seed", 0), warmup=meta.get("warmup", 0.0),
                    rng_layout=meta.get("rng_layout", 0))


# ---------------------------------------------------------------------------
# Comparison tables


def comparison_to_json(table: ComparisonTable) -> dict:
    meta = {"label": table.label, "tol_mean": table.tol_mean,
            "tol_sd": table.tol_sd, "passed": table.passed}
    # ComparisonRow declares its fields in COMPARISON_COLUMNS order
    return encode(COMPARISON, meta, map(astuple, table.rows))


# ---------------------------------------------------------------------------
# Root dumps and sweep index


def roots_to_csv(roots, residuals, label: str) -> str:
    rows = ([z.real, z.imag, abs(z), math.atan2(z.imag, z.real) % (2.0 * math.pi), resid]
            for z, resid in zip(map(complex, roots), residuals))
    return render(ROOTS, encode(ROOTS, {"label": label}, rows))


def sweep_index_to_csv(entries: list[dict], label: str) -> str:
    rows = ([entry[c] for c in SWEEP_COLUMNS] for entry in entries)
    return render(SWEEP, encode(SWEEP, {"label": label}, rows))


def write_sweep_index(entries: list[dict], path, label: str = "") -> None:
    Path(path).write_text(sweep_index_to_csv(entries, label), encoding="utf-8")


def sweep_entries(parameter: str, value: float, report: RouteReport,
                  report_file: str) -> list[dict]:
    """Flatten one sweep point into index rows with mean +- 0.2 sd bands."""
    def band(stable, mean, var):
        if not (stable and math.isfinite(var)):
            return math.nan, math.nan
        sd = math.sqrt(max(var, 0.0))
        return mean - 0.2 * sd, mean + 0.2 * sd

    out = []
    for sm in report.stations:
        q_lo, q_hi = band(sm.stable, sm.eq, sm.varq)
        w_lo, w_hi = band(sm.stable, sm.ew, sm.varw)
        out.append({"parameter": parameter, "value": value, "station": sm.station,
                    "stable": sm.stable, "e_queue": sm.eq,
                    "queue_band_low": q_lo, "queue_band_high": q_hi,
                    "e_wait": sm.ew, "wait_band_low": w_lo, "wait_band_high": w_hi,
                    "report_file": report_file})
    return out
