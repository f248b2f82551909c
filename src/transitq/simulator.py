"""Discrete-event validation of the analytical pipeline.

Vehicles traverse the route on a relative clock: the virtual vehicle 0
departs every station at time zero and each later vehicle departs its
predecessor's time plus a rectified headway max(0, H_adj + I_l - I_{l-1}),
where I_l is vehicle l's cumulative incident delay.  Passengers arrive at
each station as one Poisson process over the whole run, queue FIFO, and
board up to the free space left after alighting.

Random draws come from counter-based streams (Philox, stream layout 2): one
stream per (seed, draw kind, station), its draws taken in vehicle order.
Results are reproducible, and runs differing only in length share every
draw of their common prefix of vehicles.  The run makes one pass per
station.  Headways and alighting take a few array operations over all
vehicles; passenger arrivals are drawn on demand and streamed through the
queue in blocks of vehicles.

Each station starts one worker thread and joins it before its pass is
handed back; numpy's Generator releases the interpreter lock while it fills
an array, so the worker's draws overlap this thread's work.  The worker
draws the station's alighting while this thread builds the headways and
departures, then its arrival times one block ahead of this thread's pass.
Each stream is read by one thread only, in vehicle order, so no value
depends on which thread drew it.  Memory is O(runs) plus a few blocks'
arrivals plus the queue left behind, which stays bounded only at stable
stations.
"""

from __future__ import annotations

import math
import numbers
import operator
import queue
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .model import Scenario, adjusted_headway, require_valid

if TYPE_CHECKING:
    from .solver import RouteReport

_BATCHES = 100
# the largest mean numpy's Poisson sampler accepts: int64 max less ten sd
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)
# the most passengers a station's run may be expected to leave queued, its
# expected arrivals less what its vehicles can carry (runs * C).  Each keeps
# an 8-byte arrival time, so the limit holds that queue near 0.8 GB; a
# 50k-vehicle reference run stays 8e5 below capacity, and a capacity-1 line
# at eight times its demand 7e6 above.
_ARRIVAL_SURPLUS_MAX = 1e8
# a station pass serves its run in equal blocks of at most this many vehicles
# and about this many expected passengers
_BLOCK_VEHICLES = 4096
_BLOCK_ARRIVALS = 16384

# Version of the random-stream layout: 1 gave every vehicle its own Philox
# stream; 2 gives every (seed, draw kind, station) one, drawn in vehicle order.
RNG_LAYOUT = 2
_INCIDENT_COUNT, _INCIDENT_SIZE, _ARRIVALS, _ALIGHTING = range(4)


@dataclass(frozen=True)
class SimConfig:
    runs: int = 50_000      # vehicles simulated
    seed: int = 42
    warmup: float = 0.10    # fraction of vehicles dropped from statistics

    def __post_init__(self):
        for name in ("runs", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.runs < 100:
            raise ValueError(f"need at least 100 vehicles, got {self.runs}")
        if not 0 <= self.seed < 1 << 64:  # the high half of every stream's Philox key
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not isinstance(self.warmup, numbers.Real) or not 0.0 <= self.warmup < 1.0:
            raise ValueError(f"warmup fraction must lie in [0, 1), got {self.warmup!r}")
        if self.runs - math.ceil(self.warmup * self.runs) < 2:
            raise ValueError("warmup leaves fewer than 2 vehicles for statistics")


@dataclass(frozen=True)
class StationSimStats:
    station: int            # 1-based
    q_mean: float           # queue length seen at vehicle arrival
    q_var: float
    q_mean_se: float        # batch-means standard error
    w_mean: float           # per-passenger wait; NaN if nobody boarded
    w_var: float
    w_mean_se: float
    headway_mean: float     # realized departure headway
    headway_var: float
    boarded: int


@dataclass(frozen=True)
class SimStats:
    label: str
    runs: int
    seed: int
    warmup: float
    stations: tuple[StationSimStats, ...]
    rng_layout: int = 0     # RNG_LAYOUT of the run; 0 if unknown or not simulated


def _stream(seed: int, kind: int, station: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        key=(seed << 64) | (kind << 32) | station))


def _ratio_se(row_sums: np.ndarray, row_counts: np.ndarray) -> float:
    """Batch-means standard error of sum(row_sums) / sum(row_counts).

    The mean of a series is the ratio with unit counts.  The batches are
    those of ``np.array_split``, each summed as a row of its own, and a batch
    without counts is skipped.
    """
    n_batches = min(_BATCHES, len(row_sums))
    size, extra = divmod(len(row_sums), n_batches)
    head = extra * (size + 1)  # the first `extra` batches hold one row more
    sums, counts = (np.concatenate((x[:head].reshape(extra, size + 1).sum(axis=1),
                                    x[head:].reshape(n_batches - extra, size).sum(axis=1)))
                    for x in (row_sums, row_counts))
    means = sums[counts > 0] / counts[counts > 0]
    if len(means) < 2:
        return math.nan
    return float(np.std(means, ddof=1) / math.sqrt(len(means)))


class _Worker:
    """One thread that runs the calls handed to ``submit``, in order.

    ``submit`` returns a function that waits for its call and then returns
    the call's value or raises its exception; call it once.  Leaving the
    ``with`` block lets the queued calls finish and joins the thread.  A
    one-thread ``concurrent.futures`` pool would do the same, but on a 2-core
    x86-64 host importing it loads ``logging`` and adds about 6 ms to a cold
    ``transitq simulate``, and it made a 50k-vehicle ``run_simulation``
    1.16 times slower (median of 5 process pairs, all 5 slower).
    """

    def __enter__(self):
        self._calls = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._serve, name="transitq-draws")
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._calls.put(None)
        self._thread.join()

    def _serve(self):
        for fn, args, done in iter(self._calls.get, None):
            try:
                done.put((fn(*args), None))
            except BaseException as exc:  # raised again by the caller that waits for it
                done.put((None, exc))

    def submit(self, fn, *args):
        done = queue.SimpleQueue()
        self._calls.put((fn, args, done))

        def result():
            value, exc = done.get()
            if exc is not None:
                raise exc
            return value
        return result


def _arrival_chunks(rng: np.random.Generator, rate: float, horizons):
    """A station's Poisson arrival times at ``rate``, drawn horizon by horizon.

    Yields per horizon a list of chunks of times that reach the first time
    past it.  A chunk is sized like a whole-run draw over the span still
    uncovered, its expected count plus six standard deviations plus 16, so
    one chunk nearly always covers it.  Each chunk's exponential gaps
    continue the unscaled running sum of the chunks before it, so every time
    equals the whole-run ``cumsum(gaps) / rate`` bit for bit whatever the
    chunk sizes.  Without arrivals every list is empty.
    """
    total = last = 0.0  # unscaled running sum, last time drawn
    for horizon in horizons:
        chunks = []
        while rate > 0.0 and last <= horizon:
            mean = rate * (horizon - last)
            gaps = rng.standard_exponential(int(mean + 6.0 * math.sqrt(mean)) + 16)
            gaps[0] += total
            np.cumsum(gaps, out=gaps)
            total = gaps[-1]
            gaps /= rate
            last = gaps[-1]
            chunks.append(gaps)
        yield chunks


def _ahead(worker: _Worker, items):
    """Iterate ``items`` on ``worker``, one item ahead of the caller.

    The first item is asked for at once and each later one as the caller
    takes the one before; an exception raised making an item is raised in
    the caller that takes it.
    """
    items = iter(items)
    pending = worker.submit(next, items, None)

    def take():
        nonlocal pending
        item, pending = pending(), worker.submit(next, items, None)
        return item
    return iter(take, None)


def _block_ends(runs: int, expected: float) -> np.ndarray:
    """Where a station pass of ``runs`` vehicles and ``expected`` arrivals cuts
    its blocks: equal blocks of at most ``_BLOCK_VEHICLES`` vehicles and about
    ``_BLOCK_ARRIVALS`` expected passengers, each given by its end."""
    blocks = max(math.ceil(runs / _BLOCK_VEHICLES), math.ceil(expected / _BLOCK_ARRIVALS))
    block = -(-runs // blocks)
    return np.minimum(np.arange(block, runs + block, block), runs)


def _append(buf: np.ndarray, head: int, end: int, chunks: list[np.ndarray]):
    """Append ``chunks`` after ``buf[:end]``, whose times before ``head`` have boarded.

    Returns the new ``(buf, head, end)``.  Chunks that do not fit move the
    passengers still waiting and the chunks into a new buffer with room for
    as many more times as there are waiting passengers.  More than that many
    times are drawn before the next move, so the moves copy fewer than two
    times per time drawn, even where the queue grows through the whole run.
    """
    live, size = end - head, sum(map(len, chunks))
    if end + size > len(buf):
        new = np.empty(2 * live + size)
        new[:live] = buf[head:end]
        buf, head, end = new, 0, live
    for gaps in chunks:
        buf[end:end + len(gaps)] = gaps
        end += len(gaps)
    return buf, head, end


def _queue_pass(k: np.ndarray, stay: np.ndarray, cap: int, x0: int = 0):
    """Bulk-service FIFO queue of one station over a run of vehicles at once.

    ``k[j]`` passengers arrive during vehicle j's headway window and
    ``stay[j]`` riders remain on board after alighting, leaving room
    ``cap - stay[j]``.  ``x0`` is the queue the vehicle before the run left
    behind.  Returns ``(q_seen, board, left)``: the queue the vehicle
    finds, how many of it board, and the queue left behind.  The leftover
    follows the Lindley recursion x_j = max(0, x_{j-1} + k_j - room_j),
    which is S - min(0, running minimum of S) for S the prefix sum of
    k - room started at x0 >= 0.
    """
    s = x0 + np.cumsum(k - (cap - stay))
    left = s - np.minimum(np.minimum.accumulate(s), 0)
    q_seen = k + np.concatenate(([x0], left[:-1]))
    return q_seen, q_seen - left, left


def _station_pass(arrivals, ends: np.ndarray, dep: np.ndarray, stay: np.ndarray, cap: int):
    """One station's queue and FIFO waits, in the blocks of vehicles that end at ``ends``.

    ``arrivals`` yields per block the chunks of arrival times up to its last
    departure.  Each block counts its arrivals against its departures, runs
    the Lindley recursion from the queue the block before left, and sums the
    waits of its boarders, who are the next passengers waiting.  Returns ``(k,
    q_seen, board, left, w_sum, w_sq)``: per vehicle the arrivals, queue
    found and boardings, ``left`` the queue the last vehicle left behind,
    then per vehicle the sum and sum of squares of its boarders' waits.
    Each vehicle's boarders stay in one block and in order, so no output
    depends on the block size.
    """
    runs = len(dep)
    k, q_seen, board = (np.empty(runs, dtype=np.int64) for _ in range(3))
    w_sum, w_sq = np.empty(runs), np.empty(runs)
    buf, head, end = np.empty(0), 0, 0  # buf[head:end]: arrivals drawn, not yet boarded
    lo = left = 0
    for hi in ends.tolist():
        buf, head, end = _append(buf, head, end, next(arrivals))
        seen = np.searchsorted(buf[:end], dep[lo:hi], side="right")
        k[lo:hi] = np.diff(seen, prepend=head + left)
        q, b, x = _queue_pass(k[lo:hi], stay[lo:hi], cap, left)
        q_seen[lo:hi], board[lo:hi], left = q, b, int(x[-1])
        rider = np.repeat(np.arange(hi - lo), b)
        w = dep[lo:hi][rider]
        w -= buf[head:head + len(rider)]
        head += len(rider)
        w_sum[lo:hi] = np.bincount(rider, weights=w, minlength=hi - lo)
        w *= w
        w_sq[lo:hi] = np.bincount(rider, weights=w, minlength=hi - lo)
        lo = hi
    return k, q_seen, board, left, w_sum, w_sq


def _station_passes(scenario: Scenario, config: SimConfig):
    """Simulate a valid scenario one station at a time, in route order.

    Yields per station ``(h, k, q_seen, board, loads, left, w_sum, w_sq)``:
    per vehicle the departure headway, the arrivals, the queue found, the
    boardings and the load on departure, then the queue the last vehicle
    left behind, then per vehicle the sum and sum of squares of its
    boarders' waits.  Only the cumulative delays and the loads carry on to
    the next station; a consumer that drops each pass before asking for the
    next holds one station's arrays at a time.  Every (seed, kind, station)
    stream is drawn on its own and by one thread, so neither taking the
    stations in turn nor which thread draws a stream changes a draw.
    """
    route = scenario.route
    runs, seed = config.runs, config.seed
    lam = route.arrival_rates()
    alpha = route.alight_probs()
    seg = (route.segment_times if route.segment_times is not None
           else (route.interstation_time,) * route.num_stations)
    gamma, theta = scenario.incidents.rate, scenario.incidents.duration_rate
    h_adj = adjusted_headway(scenario)
    for n, t in enumerate(seg, start=1):
        if gamma * t > _POISSON_MEAN_MAX:
            raise ValueError(f"station {n}: the incident-count draw needs a Poisson mean "
                             f"gamma * T = {gamma * t:.3g}, above numpy's limit "
                             f"{_POISSON_MEAN_MAX:.3g}")

    delay = np.zeros(runs + 1)  # cumulative incident delay of vehicles 0..runs
    loads = np.zeros(runs, dtype=np.int64)
    for n in range(route.num_stations):
        with _Worker() as worker:
            # alighting needs only the loads the station before left, so the
            # worker draws it while this thread draws the incidents
            alighted = worker.submit(_stream(seed, _ALIGHTING, n).binomial, loads, alpha[n])
            # Rectified headways and departure times of vehicles 1..runs (the
            # virtual vehicle 0 departs every station at t=0).
            sizes = _stream(seed, _INCIDENT_SIZE, n).gamma(
                _stream(seed, _INCIDENT_COUNT, n).poisson(gamma * seg[n], size=runs + 1))
            sizes /= theta
            delay += sizes
            del sizes
            h = delay[1:] + h_adj
            h -= delay[:-1]
            np.maximum(h, 0.0, out=h)
            dep = np.cumsum(h)
            expected = lam[n] * dep[-1]
            if expected - runs * route.capacity > _ARRIVAL_SURPLUS_MAX:
                raise ValueError(f"station {n + 1}: the arrival draw expects {expected:.3g} "
                                 f"passengers, more than {_ARRIVAL_SURPLUS_MAX:.3g} beyond the "
                                 f"{runs * route.capacity} that {runs} vehicles of capacity "
                                 f"{route.capacity} can carry")

            # the worker draws block 0's arrivals right after the alighting
            ends = _block_ends(runs, expected)
            arrivals = _ahead(worker, _arrival_chunks(_stream(seed, _ARRIVALS, n), lam[n],
                                                      dep[ends - 1]))
            stay = loads - alighted()
            k, q_seen, board, left, w_sum, w_sq = _station_pass(
                arrivals, ends, dep, stay, route.capacity)
        loads = stay + board
        yield h, k, q_seen, board, loads, left, w_sum, w_sq
        # before the next station allocates its own
        del h, dep, stay, k, q_seen, board, w_sum, w_sq


def run_simulation(scenario: Scenario, config: SimConfig | None = None) -> SimStats:
    config = config or SimConfig()
    require_valid(scenario)
    cut = math.ceil(config.warmup * config.runs)
    stats: list[StationSimStats] = []
    for h, _, q_seen, board, _, _, w_sum, w_sq in _station_passes(scenario, config):
        q_sel, h_sel = q_seen[cut:], h[cut:]
        cnt = int(board[cut:].sum())
        if cnt:
            w_mean = float(w_sum[cut:].sum()) / cnt
            w_var = ((float(w_sq[cut:].sum()) - cnt * w_mean * w_mean) / (cnt - 1)
                     if cnt > 1 else math.nan)
        else:
            w_mean = w_var = math.nan
        stats.append(StationSimStats(
            station=len(stats) + 1,
            q_mean=float(q_sel.mean()), q_var=float(q_sel.var(ddof=1)),
            q_mean_se=_ratio_se(q_sel, np.ones_like(q_sel)),
            w_mean=w_mean, w_var=w_var,
            w_mean_se=_ratio_se(w_sum[cut:], board[cut:]),
            headway_mean=float(h_sel.mean()), headway_var=float(h_sel.var(ddof=1)),
            boarded=cnt,
        ))
        # before the next station is drawn
        del h, q_seen, board, w_sum, w_sq, q_sel, h_sel
    return SimStats(label=scenario.label, runs=config.runs, seed=config.seed,
                    warmup=config.warmup, stations=tuple(stats), rng_layout=RNG_LAYOUT)


# ---------------------------------------------------------------------------
# Theory-vs-simulation comparison

_REL_MEAN_DEFAULT = 0.08
_FLOOR_EQ = 0.3
_FLOOR_EW = 0.2
# the fields an excluded station reports as NaN, by status
_EXCLUDED_NAN = {
    "excluded-unstable": ("eq_gap", "eq_tol", "ew_gap", "ew_tol", "q_sd_theory",
                          "q_sd_rel_gap", "w_sd_theory", "w_sd_sim", "w_sd_rel_gap"),
    "excluded-no-arrivals": ("eq_tol", "ew_gap", "ew_tol", "q_sd_rel_gap",
                             "w_sd_theory", "w_sd_sim", "w_sd_rel_gap"),
}


@dataclass(frozen=True)
class ComparisonRow:
    station: int
    status: str             # pass | fail | excluded-unstable | excluded-no-arrivals
    eq_theory: float
    eq_sim: float
    eq_gap: float
    eq_tol: float
    ew_theory: float
    ew_sim: float
    ew_gap: float
    ew_tol: float
    q_sd_theory: float
    q_sd_sim: float
    q_sd_rel_gap: float
    w_sd_theory: float
    w_sd_sim: float
    w_sd_rel_gap: float


@dataclass(frozen=True)
class ComparisonTable:
    label: str
    tol_mean: float
    tol_sd: float
    rows: tuple[ComparisonRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.status != "fail" for row in self.rows)


def compare(report: RouteReport, stats: SimStats,
            tol_mean: float = _REL_MEAN_DEFAULT,
            tol_sd: float = 0.12) -> ComparisonTable:
    """Check simulated moments against the analytical report, station by station.

    Mean checks pass when the gap is within max(floor, tol_mean * |theory|);
    the absolute floors (0.3 queue, 0.2 wait) scale with tol_mean so that
    tol_mean=0 demands exact agreement and fails on Monte Carlo noise alone.
    Spread checks compare standard deviations relatively at tol_sd.  Unstable
    stations and those without arrivals (a NaN theory wait) are reported but
    excluded from pass/fail.  A label or station count that differs between
    the two, or a tolerance that is negative or NaN, raises ValueError.
    """
    if not (tol_mean >= 0.0 and tol_sd >= 0.0):  # a NaN fails both comparisons
        raise ValueError(f"tolerances must be non-negative, got tol_mean={tol_mean!r}, "
                         f"tol_sd={tol_sd!r}")
    if report.label != stats.label:
        raise ValueError(f"scenario label mismatch: theory {report.label!r} "
                         f"vs simulation {stats.label!r}")
    if len(report.stations) != len(stats.stations):
        raise ValueError("report and simulation cover different station counts")
    scale = tol_mean / _REL_MEAN_DEFAULT
    rows = []
    for th, sim in zip(report.stations, stats.stations):
        eq_gap = abs(th.eq - sim.q_mean)
        eq_tol = max(_FLOOR_EQ * scale, tol_mean * abs(th.eq))
        ew_gap = abs(th.ew - sim.w_mean)
        ew_tol = max(_FLOOR_EW * scale, tol_mean * abs(th.ew))
        q_sd_th = math.sqrt(max(th.varq, 0.0))
        q_sd_sim = math.sqrt(max(sim.q_var, 0.0))
        w_sd_th = math.sqrt(max(th.varw, 0.0))
        w_sd_sim = math.sqrt(max(sim.w_var, 0.0)) if not math.isnan(sim.w_var) else math.nan
        q_sd_gap = abs(q_sd_sim - q_sd_th) / q_sd_th if q_sd_th > 0 else math.inf
        w_sd_gap = abs(w_sd_sim - w_sd_th) / w_sd_th if w_sd_th > 0 else math.inf
        if not th.stable:
            status = "excluded-unstable"
        elif math.isnan(th.ew):  # the solver's mark of a station without arrivals
            status = "excluded-no-arrivals"
        elif (eq_gap <= eq_tol and ew_gap <= ew_tol
              and q_sd_gap <= tol_sd and w_sd_gap <= tol_sd):
            status = "pass"
        else:
            status = "fail"
        row = ComparisonRow(
            station=th.station, status=status,
            eq_theory=th.eq, eq_sim=sim.q_mean, eq_gap=eq_gap, eq_tol=eq_tol,
            ew_theory=th.ew, ew_sim=sim.w_mean, ew_gap=ew_gap, ew_tol=ew_tol,
            q_sd_theory=q_sd_th, q_sd_sim=q_sd_sim, q_sd_rel_gap=q_sd_gap,
            w_sd_theory=w_sd_th, w_sd_sim=w_sd_sim, w_sd_rel_gap=w_sd_gap)
        rows.append(replace(row, **dict.fromkeys(_EXCLUDED_NAN.get(status, ()), math.nan)))
    return ComparisonTable(label=report.label, tol_mean=tol_mean, tol_sd=tol_sd,
                           rows=tuple(rows))
