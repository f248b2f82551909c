"""Correctness checks on the outputs the benchmark times.

Each check returns a list of problems (empty when the output is right).  The
checks test properties the method must have, or recompute a number by a
different route than the program takes: an argument-principle root census, a
dense Markov-chain solve fed by an arrival pmf integrated here from the
headway law, the normalization identity summed term by term, and parsing of
the CLI's own output files.  None of them compares against a stored copy of
an earlier run.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TRIM_EPS = 1e-12          # space mass below this does not count toward capacity
NORMALIZATION_TOL = 1e-8
MARKOV_REL_TOL = 1e-6
SIM_REL_GATE = 0.08       # the 8% mean gate of the theory-vs-simulation comparison
SIM_FLOOR_EQ = 0.3
SIM_FLOOR_EW = 0.2
SIM_RHO_GATED = 0.5       # stations at or above this utilization are reported only
HEADWAY_MEAN_TOL = 0.01
HEADWAY_VAR_TOL = 0.10
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Independent numerics


def effective_capacity(probs) -> int:
    nz = np.nonzero(np.asarray(probs) > TRIM_EPS)[0]
    return int(nz[-1]) if len(nz) else 0


def trimmed_space(probs) -> np.ndarray:
    s = np.asarray(probs, dtype=float)[: effective_capacity(probs) + 1]
    return s / s.sum()


def headway_mean(hw) -> float:
    """E[max(0, N(mu, sigma^2))] from the normal density and distribution."""
    if hw.sigma == 0.0:
        return hw.mu
    m = hw.mu / hw.sigma
    big = 0.5 * math.erfc(-m / math.sqrt(2.0))
    small = math.exp(-0.5 * m * m) / math.sqrt(TWO_PI)
    return hw.mu * big + hw.sigma * small


def arrival_pmf(lam: float, hw, tail: float = 1e-17) -> np.ndarray:
    """P(Y = k) for Poisson(lam * H) arrivals over the rectified-normal headway H.

    Integrates the Poisson probabilities against the normal density on h > 0
    by composite Gauss-Legendre quadrature and adds the atom at h = 0 to k = 0.
    No generating function is involved.
    """
    if hw.sigma == 0.0:
        h_nodes, h_weights, atom = np.array([hw.mu]), np.array([1.0]), 0.0
    else:
        h_max = hw.mu + 14.0 * hw.sigma
        panels = max(64, int(math.ceil(h_max * max(lam, 1e-3) * 2.0)))
        x, w = np.polynomial.legendre.leggauss(8)
        edges = np.linspace(0.0, h_max, panels + 1)
        half = 0.5 * np.diff(edges)
        h_nodes = (edges[:-1, None] + half[:, None] * (x[None, :] + 1.0)).ravel()
        density = np.exp(-0.5 * ((h_nodes - hw.mu) / hw.sigma) ** 2) / (hw.sigma * math.sqrt(TWO_PI))
        h_weights = (half[:, None] * w[None, :]).ravel() * density
        atom = 0.5 * math.erfc(hw.mu / hw.sigma / math.sqrt(2.0))
    top = lam * float(h_nodes.max())
    k_max = int(top + 12.0 * math.sqrt(top + 1.0) + 40)
    k = np.arange(k_max + 1)
    lgam = np.array([math.lgamma(i + 1.0) for i in k])
    mean = lam * h_nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pois = k[:, None] * np.log(mean)[None, :] - mean[None, :] - lgam[:, None]
    log_pois[:, mean == 0.0] = -np.inf
    log_pois[0, mean == 0.0] = 0.0
    pmf = np.exp(log_pois) @ h_weights
    pmf[0] += atom
    keep = np.nonzero(pmf > tail)[0]
    pmf = pmf[: keep[-1] + 1]
    return pmf / pmf.sum()


def markov_queue_moments(s_probs, pmf) -> tuple[float, float]:
    """Mean and variance of the stationary law of Q' = max(Q - S, 0) + Y.

    Builds the dense transition matrix on 0..K and solves the balance
    equations; K leaves room for the tail to fall below double precision.
    """
    s = np.asarray(s_probs, dtype=float)
    cap = len(s) - 1
    load = float(pmf @ np.arange(len(pmf))) / float(s @ np.arange(cap + 1))
    k = int(cap + len(pmf) + 60.0 / max(1.0 - load, 0.02))
    trans = np.zeros((k + 1, k + 1))
    states = np.arange(k + 1)
    for space, sp in enumerate(s):
        if sp == 0.0:
            continue
        base = np.maximum(states - space, 0)
        for q in range(k + 1):
            hi = min(len(pmf), k + 1 - base[q])
            trans[q, base[q]: base[q] + hi] += sp * pmf[:hi]
    trans /= trans.sum(axis=1, keepdims=True)
    a = trans.T - np.eye(k + 1)
    a[-1, :] = 1.0
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi = np.clip(np.linalg.solve(a, b), 0.0, None)
    pi /= pi.sum()
    mean = float(pi @ states)
    return mean, float(pi @ (states - mean) ** 2)


def winding_count(handle, radius: float = 1.0 + 1e-6, m0: int = 4096,
                  max_m: int = 2 ** 20) -> float:
    """Zeros inside ``radius`` of an entire ``handle`` by summed phase steps."""
    m = m0
    while True:
        t = np.arange(m) * (TWO_PI / m)
        vals = np.asarray(handle(radius * np.exp(1j * t)), dtype=complex)
        dphi = np.angle(np.roll(vals, -1) / vals)
        if np.max(np.abs(dphi)) < 2.5 or m >= max_m:
            return float(np.sum(dphi) / TWO_PI)
        m *= 2


def normalization_gap(s, q, y_mean: float) -> float:
    """|sum_u s_u sum_{i<u} q_i (u - i) - (E[S] - E[Y])| by plain double sums."""
    total = 0.0
    for u, su in enumerate(s):
        total += su * sum(q[i] * (u - i) for i in range(min(u, len(q))))
    s_mean = sum(u * su for u, su in enumerate(s))
    return abs(total - (s_mean - y_mean))


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Closed-form station outputs


def station_problems(where: str, sm, hw, y_pgf) -> list[str]:
    """Root count, argument-principle census, front mass and normalization.

    Applies to a stable station with arrivals; ``y_pgf(z, lam, hw)`` gives
    the arrival PGF for the census of z^C - s(z) Y(z).
    """
    if not sm.stable or sm.arrival_rate == 0.0:
        return []
    out = []
    s = trimmed_space(sm.service_dist.probs)
    cap = len(s) - 1
    if len(sm.roots) != cap:
        out.append(f"{where}: {len(sm.roots)} roots, effective capacity {cap}")

    def entire(z):
        return z**cap - np.polyval(s, z) * np.asarray(y_pgf(z, sm.arrival_rate, hw))

    wind = winding_count(entire)
    if abs(wind - cap) > 0.01:
        out.append(f"{where}: argument-principle count {wind:.3f}, capacity {cap}")
    if sm.roots:
        z = np.asarray(sm.roots, dtype=complex)
        if np.max(np.abs(z)) > 1.0 + 1e-8:
            out.append(f"{where}: root outside the closed unit disk")
        resid = float(np.max(np.abs(entire(z))))
        if resid > 1e-8:
            out.append(f"{where}: |z^C - s(z)Y(z)| = {resid:.2e} at a root")
    q = np.asarray(sm.queue_front.q, dtype=float)
    if q.sum() > 1.0 + 1e-9 or q.min() < 0.0:
        out.append(f"{where}: queue front mass {q.sum():.12g}, min {q.min():.3g}")
    gap = normalization_gap(s, q[:cap], sm.arrival_rate * headway_mean(hw))
    if not gap <= NORMALIZATION_TOL:
        out.append(f"{where}: normalization identity off by {gap:.3e}")
    return out


def markov_problems(where: str, sm, hw) -> list[str]:
    """E[Q] and Var[Q] against a dense Markov-chain solve of the station."""
    pmf = arrival_pmf(sm.arrival_rate, hw)
    mean, var = markov_queue_moments(trimmed_space(sm.service_dist.probs), pmf)
    out = []
    if _rel_gap(sm.eq, mean) > MARKOV_REL_TOL:
        out.append(f"{where}: E[Q] {sm.eq!r} vs Markov chain {mean!r}")
    if _rel_gap(sm.varq, var) > MARKOV_REL_TOL:
        out.append(f"{where}: Var[Q] {sm.varq!r} vs Markov chain {var!r}")
    return out


def markov_station(report):
    """The stable station with arrivals and the highest utilization."""
    cands = [(sm.rho, i) for i, sm in enumerate(report.stations)
             if sm.stable and sm.arrival_rate > 0.0]
    return max(cands)[1] if cands else None


# ---------------------------------------------------------------------------
# CLI outputs


def _num(v) -> float:
    """A report value as a float: JSON null is NaN, "inf" is infinity."""
    return math.nan if v is None else float(v)


def _same(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def analyze_json_problems(where: str, text: str, report) -> list[str]:
    """The CLI's JSON report parses and matches the in-process report."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"{where}: output is not JSON ({exc})"]
    out = []
    if doc.get("label") != report.label:
        out.append(f"{where}: label {doc.get('label')!r} != {report.label!r}")
    rows = doc.get("stations", [])
    if len(rows) != report.num_stations:
        return out + [f"{where}: {len(rows)} stations, expected {report.num_stations}"]
    for row, sm in zip(rows, report.stations):
        for key, want in (("rho", sm.rho), ("e_queue", sm.eq), ("var_queue", sm.varq),
                          ("e_wait", sm.ew), ("var_wait", sm.varw)):
            got = _num(row.get(key))
            if not _same(got, float(want), 1e-9):
                out.append(f"{where}: station {sm.station} {key} {got!r} != {want!r}")
        if row.get("stable") != sm.stable:
            out.append(f"{where}: station {sm.station} stability differs")
    return out


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(line for line in io.StringIO(text)
                           if line.strip() and not line.startswith("#")))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def roots_csv_problems(where: str, text: str, sm) -> list[str]:
    """The CLI's root dump has C rows, each a program root with a tiny residual."""
    try:
        header, rows = _csv_rows(text)
        col = {name: i for i, name in enumerate(header)}
        dumped = [complex(float(r[col["re"]]), float(r[col["im"]])) for r in rows]
        resid = [float(r[col["residual"]]) for r in rows]
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{where}: unreadable root dump ({exc})"]
    out = []
    cap = effective_capacity(sm.service_dist.probs)
    if len(dumped) != cap:
        out.append(f"{where}: {len(dumped)} roots dumped, effective capacity {cap}")
    known = np.asarray(sm.roots, dtype=complex)
    for z in dumped:
        if not len(known) or np.min(np.abs(known - z)) > 1e-7:
            out.append(f"{where}: dumped root {z:.9g} is not a root of the report")
            break
    if resid and max(resid) >= 1e-8:
        out.append(f"{where}: dumped residual {max(resid):.2e}")
    return out


def sweep_index_problems(where: str, text: str, values: list[float],
                         num_stations: int, anchor=None) -> list[str]:
    """One row per (value, station); E[Q] never falls as demand rises.

    ``anchor`` = (value, report) names a sweep value whose rows must carry the
    E[Q] of an in-process report of the same scenario.
    """
    try:
        header, rows = _csv_rows(text)
        col = {name: i for i, name in enumerate(header)}
        recs = [(float(r[col["value"]]), int(float(r[col["station"]])),
                 r[col["stable"]] == "true", _num(r[col["e_queue"]] or None))
                for r in rows]
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{where}: unreadable sweep index ({exc})"]
    out = []
    keys = [(v, st) for v, st, _, _ in recs]
    want = [(v, st) for v in values for st in range(1, num_stations + 1)]
    if sorted(keys) != sorted(want):
        out.append(f"{where}: {len(keys)} index rows, expected one per station and "
                   f"value ({len(want)})")
    by_station: dict[int, list[tuple[float, bool, float]]] = {}
    for v, st, stable, eq in recs:
        by_station.setdefault(st, []).append((v, stable, eq))
    for st, pts in sorted(by_station.items()):
        pts.sort()
        for (v0, ok0, q0), (v1, ok1, q1) in zip(pts, pts[1:]):
            if ok0 and ok1 and q1 < q0 * (1.0 - 1e-9):
                out.append(f"{where}: station {st} E[Q] falls from {q0:g} to {q1:g} "
                           f"as demand rises {v0:g} -> {v1:g}")
    if anchor is not None:
        value, report = anchor
        for v, st, _, eq in recs:
            want = report.stations[st - 1].eq if 1 <= st <= report.num_stations else None
            if v == value and want is not None and not _same(eq, want, 1e-8):
                out.append(f"{where}: station {st} E[Q] {eq!r} at {value:g}, "
                           f"in-process report {want!r}")
    return out


def sim_json_problems(where: str, text: str, stats) -> list[str]:
    """The CLI's simulation JSON parses and matches an in-process run."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"{where}: output is not JSON ({exc})"]
    out = []
    if doc.get("runs") != stats.runs or doc.get("seed") != stats.seed:
        out.append(f"{where}: runs/seed {doc.get('runs')}/{doc.get('seed')} differ")
    rows = doc.get("stations", [])
    if len(rows) != len(stats.stations):
        return out + [f"{where}: {len(rows)} stations, expected {len(stats.stations)}"]
    for row, st in zip(rows, stats.stations):
        for key, want in (("e_queue_sim", st.q_mean), ("var_queue_sim", st.q_var),
                          ("e_wait_sim", st.w_mean), ("boarded", st.boarded)):
            if not _same(_num(row.get(key)), float(want), 1e-12):
                out.append(f"{where}: station {st.station} {key} {row.get(key)!r} "
                           f"!= {want!r}")
    return out


# ---------------------------------------------------------------------------
# Simulator against the closed forms


def simulation_problems(where: str, report, stats, headway_moments) -> tuple[list[str], list[str]]:
    """(problems, notes): mean gates where rho < 0.5, headway law, last station.

    ``headway_moments(hw)`` returns (mean, variance, ...) of the fitted
    headway law.  Stations at rho >= 0.5 are only noted, not gated.
    """
    out, notes = [], []
    for sm, st, hw in zip(report.stations, stats.stations, report.headway):
        tag = f"{where}: station {sm.station}"
        if sm.stable and sm.arrival_rate > 0.0:
            eq_gap = abs(st.q_mean - sm.eq)
            ew_gap = abs(st.w_mean - sm.ew)
            eq_tol = max(SIM_FLOOR_EQ, SIM_REL_GATE * abs(sm.eq))
            ew_tol = max(SIM_FLOOR_EW, SIM_REL_GATE * abs(sm.ew))
            if sm.rho < SIM_RHO_GATED:
                if not eq_gap <= eq_tol:
                    out.append(f"{tag} E[Q] sim {st.q_mean:.4f} vs {sm.eq:.4f}")
                if not ew_gap <= ew_tol:
                    out.append(f"{tag} E[W] sim {st.w_mean:.4f} vs {sm.ew:.4f}")
            else:
                notes.append(f"station {sm.station} (rho {sm.rho:.3f}) not gated: "
                             f"E[Q] sim/theory {st.q_mean / sm.eq:.3f}, "
                             f"E[W] {st.w_mean / sm.ew:.3f}")
        h_mean, h_var = headway_moments(hw)[:2]
        if _rel_gap(st.headway_mean, h_mean) > HEADWAY_MEAN_TOL:
            out.append(f"{tag} headway mean {st.headway_mean:.4f} vs {h_mean:.4f}")
        if _rel_gap(st.headway_var, h_var) > HEADWAY_VAR_TOL:
            out.append(f"{tag} headway variance {st.headway_var:.4f} vs {h_var:.4f}")
    if stats.stations and stats.stations[-1].boarded != 0:
        out.append(f"{where}: last station boarded {stats.stations[-1].boarded}")
    return out, notes
