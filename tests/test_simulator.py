"""Simulator behaviour: reproducibility, conservation, and the comparison gate."""

import dataclasses
import hashlib
import itertools
import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from transitq import cli, headway, model, simulator, solver
from transitq.simulator import (
    ComparisonTable,
    SimConfig,
    SimStats,
    StationSimStats,
    compare,
    run_simulation,
    _Worker,
    _ahead,
    _append,
    _arrival_chunks,
    _block_ends,
    _queue_pass,
    _station_pass,
    _station_passes,
)


def simulate_traced(scenario, config):
    """``run_simulation``'s stats and a trace of the run, rebuilt from its station passes.

    The trace holds per (vehicle, station) the headways, arrivals and
    boardings, per station the passengers arrived and boarded and the queue
    left behind, the largest load and the loads on leaving the last station.
    """
    h, k, _, board, loads, left, _, _ = zip(*_station_passes(scenario, config))
    arrivals, boardings = np.column_stack(k), np.column_stack(board)
    trace = {
        "headways": np.column_stack(h),
        "arrived": arrivals.sum(axis=0),
        "boarded": boardings.sum(axis=0),
        "final_queue": np.array(left, dtype=np.int64),
        "load_max": max(int(x.max()) for x in loads),
        "final_loads": loads[-1],
        "vehicle_arrivals": arrivals,
        "vehicle_boardings": boardings,
    }
    return run_simulation(scenario, config), trace


def no_incident(scenario):
    inc = dataclasses.replace(scenario.incidents, rate=0.0)
    return dataclasses.replace(scenario, incidents=inc, label="no-incidents")


# ---------------------------------------------------------------------------
# configuration guards


def test_config_defaults():
    cfg = SimConfig()
    assert cfg.runs == 50_000
    assert cfg.seed == 42
    assert cfg.warmup == 0.10


def test_config_rejects_tiny_run():
    with pytest.raises(ValueError, match="need at least 100 vehicles"):
        SimConfig(runs=99)


@pytest.mark.parametrize("warmup", [-0.1, 1.0, 1.5, "0.1", None])
def test_config_rejects_bad_warmup(warmup):
    with pytest.raises(ValueError, match="warmup fraction"):
        SimConfig(warmup=warmup)


def test_warmup_must_leave_vehicles():
    with pytest.raises(ValueError, match="fewer than 2 vehicles"):
        SimConfig(runs=100, warmup=0.99)
    assert SimConfig(runs=100, warmup=0.98).runs == 100


@pytest.mark.parametrize("field, value", [
    ("runs", 1000.0), ("runs", "1000"), ("seed", 1.5), ("seed", np.float64(5.0)),
])
def test_config_refuses_a_count_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        SimConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("runs", True, "runs must be an integer"), ("seed", True, "seed must be an integer"),
    ("seed", False, "seed must be an integer"), ("warmup", False, "warmup fraction"),
    ("warmup", True, "warmup fraction")])
def test_config_refuses_a_boolean(field, value, message):
    # True is 1 to operator.index and a Real: seed=True would run seed 1, and
    # warmup=False would be written to a JSON report as false
    with pytest.raises(ValueError, match=f"^{message}"):
        SimConfig(**{field: value})


@pytest.mark.parametrize("seed", [np.uint64(5), np.int64(5), np.int32(5)])
def test_config_takes_numpy_integers_as_python_ints(reference, seed):
    # np.uint64(5) << 64 wraps to 0, which ran seed 0's streams
    cfg = SimConfig(runs=200, seed=seed)
    assert type(cfg.seed) is int and cfg.seed == 5
    assert type(SimConfig(runs=np.int64(200)).runs) is int
    assert run_simulation(reference, cfg) == run_simulation(reference, SimConfig(runs=200, seed=5))


@pytest.mark.parametrize("seed", [-1, 1 << 64, 5 + (1 << 64)])
def test_config_refuses_a_seed_beyond_64_bits(seed):
    # a stream's Philox key holds 64 bits of seed, so 5 + 2**64 would run
    # seed 5's streams under another name
    with pytest.raises(ValueError, match=f"^seed must lie in \\[0, 2\\*\\*64\\), got {seed}$"):
        SimConfig(seed=seed)


def test_config_takes_every_64_bit_seed(reference):
    stats = run_simulation(reference, SimConfig(runs=200, seed=(1 << 64) - 1))
    assert stats.seed == (1 << 64) - 1
    assert stats != run_simulation(reference, SimConfig(runs=200, seed=0))


def test_seed_beyond_64_bits_is_an_input_error(capsys):
    assert cli.main(["simulate", "--runs", "200", "--seed", str(5 + (1 << 64))]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: seed must lie in [0, 2**64), got {5 + (1 << 64)}\n"


def test_rejects_invalid_scenario(reference):
    bad = dataclasses.replace(
        reference, incidents=model.IncidentParams(rate=-1.0, duration_rate=1.0))
    with pytest.raises(ValueError):
        run_simulation(bad, SimConfig(runs=200))


# ---------------------------------------------------------------------------
# reproducibility


def test_same_seed_same_stats(reference):
    cfg = SimConfig(runs=400, seed=7)
    assert run_simulation(reference, cfg) == run_simulation(reference, cfg)


def test_different_seed_different_draws(reference):
    a = run_simulation(reference, SimConfig(runs=400, seed=1))
    b = run_simulation(reference, SimConfig(runs=400, seed=2))
    assert a.stations[0].q_mean != b.stations[0].q_mean


def test_longer_run_shares_prefix(reference):
    # counter-based streams, one per (draw kind, station), drawn in vehicle
    # order: extending the run must not disturb the vehicles already simulated
    _, short = simulate_traced(reference, SimConfig(runs=300, seed=11))
    _, full = simulate_traced(reference, SimConfig(runs=600, seed=11))
    np.testing.assert_array_equal(full["headways"][:300], short["headways"])


def test_longer_run_shares_arrival_and_boarding_prefix(reference):
    # one stream per (draw kind, station), drawn in vehicle order: the first
    # 300 vehicles see the same passengers whatever follows them
    _, short = simulate_traced(reference, SimConfig(runs=300, seed=11))
    _, full = simulate_traced(reference, SimConfig(runs=600, seed=11))
    assert short["vehicle_arrivals"].shape == (300, reference.route.num_stations)
    assert short["vehicle_arrivals"].sum() > 0
    for key in ("vehicle_arrivals", "vehicle_boardings"):
        np.testing.assert_array_equal(full[key][:300], short[key])


def test_stats_carry_run_metadata(reference):
    stats = run_simulation(reference, SimConfig(runs=250, seed=3, warmup=0.2))
    assert stats.label == reference.label
    assert (stats.runs, stats.seed, stats.warmup) == (250, 3, 0.2)
    assert stats.rng_layout == simulator.RNG_LAYOUT == 2
    assert [s.station for s in stats.stations] == list(range(1, 11))


# exact results of reference, runs=2000, seed=7 (stream layout 2); any change
# to the draws or to the order of a floating-point sum shows up here
PINNED_STATIONS = (
    "StationSimStats(station=1, q_mean=4.31, q_var=6.1084046692606995, "
    "q_mean_se=0.0551227812487277, w_mean=3.869342010709484, w_var=6.3502482957087985, "
    "w_mean_se=0.03639596006922823, headway_mean=7.2050153294593775, "
    "headway_var=4.109867906920783, boarded=7758)",
    "StationSimStats(station=2, q_mean=8.682222222222222, q_var=20.342540917793833, "
    "q_mean_se=0.0729377488094929, w_mean=4.17034848428788, w_var=8.26484278756561, "
    "w_mean_se=0.03829046787983116, headway_mean=7.2190924850058655, "
    "headway_var=7.787306956692225, boarded=15616)",
    "StationSimStats(station=3, q_mean=4.343333333333334, q_var=8.750316842690383, "
    "q_mean_se=0.0540617346743932, w_mean=4.430266170902095, w_var=10.2741994730555, "
    "w_mean_se=0.05615279231538435, headway_mean=7.239578569154691, "
    "headway_var=11.877402046650335, boarded=7752)",
    "StationSimStats(station=4, q_mean=22.80611111111111, q_var=98.28645512939289, "
    "q_mean_se=0.3171074127733613, w_mean=6.020659660781388, w_var=14.57329968453477, "
    "w_mean_se=0.09481424891355565, headway_mean=7.275303361660491, "
    "headway_var=14.818161900522906, boarded=31463)",
    "StationSimStats(station=5, q_mean=13.754444444444445, q_var=53.21704527206472, "
    "q_mean_se=0.3486431576526024, w_mean=7.873826577474549, w_var=28.67383325642353, "
    "w_mean_se=0.23266709840007657, headway_mean=7.32973330104514, "
    "headway_var=18.05029275456225, boarded=15824)",
    "StationSimStats(station=6, q_mean=5.883333333333334, q_var=19.065869927737637, "
    "q_mean_se=0.06454972243679029, w_mean=5.134270594742128, w_var=14.612805382099952, "
    "w_mean_se=0.06571243816704578, headway_mean=7.395617008540101, "
    "headway_var=21.137002828149, boarded=10590)",
    "StationSimStats(station=7, q_mean=4.453333333333333, q_var=13.768804891606448, "
    "q_mean_se=0.05828170982788171, w_mean=5.415624463394114, w_var=16.19863120729088, "
    "w_mean_se=0.07733684725106807, headway_mean=7.459931413943563, "
    "headway_var=24.10280874142237, boarded=8012)",
    "StationSimStats(station=8, q_mean=3.0366666666666666, q_var=7.368304613674264, "
    "q_mean_se=0.04518339125433757, w_mean=5.578596819659455, w_var=17.367684504102797, "
    "w_mean_se=0.08463559588520014, headway_mean=7.505588983604741, "
    "headway_var=26.99330268888146, boarded=5429)",
    "StationSimStats(station=9, q_mean=1.2261111111111112, q_var=1.9082672472361188, "
    "q_mean_se=0.02824252078068435, w_mean=5.633089865949193, w_var=18.88287079193605, "
    "w_mean_se=0.1263909316627298, headway_mean=7.5690796090227765, "
    "headway_var=29.545024492471, boarded=2207)",
    "StationSimStats(station=10, q_mean=0.0, q_var=0.0, q_mean_se=0.0, w_mean=nan, "
    "w_var=nan, w_mean_se=nan, headway_mean=7.606951135930677, "
    "headway_var=32.00791271212933, boarded=0)",
)
PINNED_TRACE_SHA256 = "75ab84089428f1b50c02ffb85473f1157d56e7fa3b3ee9ab658c668dd0a9d60a"


def trace_digest(trace):
    """SHA-256 over every trace entry's name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for key in sorted(trace):
        arr = np.asarray(trace[key])
        h.update(f"{key}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_reference_run_is_pinned(reference):
    stats, trace = simulate_traced(reference, SimConfig(runs=2000, seed=7))
    assert tuple(map(repr, stats.stations)) == PINNED_STATIONS
    assert trace_digest(trace) == PINNED_TRACE_SHA256


def capacity_one(scenario):
    route = dataclasses.replace(scenario.route, capacity=1)
    return dataclasses.replace(scenario, route=route, label="cap-1")


# runs=9000, seed=7: many blocks of vehicles per station, so these carry the
# arrival stream, the queue left behind and the waits across block edges;
# the capacity-1 line leaves a queue that grows through the whole run.
# SHA-256 of the stations' reprs joined by newlines, then of the trace.
PINNED_MULTI_BLOCK = {
    "reference": ("aaf84a67295b7fa757a4f96c9bf0578b3e3894c8690c13a6eeb2404c8bf90949",
                  "c4affb2aff27a0544a5b84fce4f35ac9e63d86304000675ee6e03ecf06eb9266"),
    "cap-1": ("fd63b1b3a625d018641f6dd2eb25efa7dce468fcbf7dc2eaa0fe02d5a699ecf8",
              "228b6a9f36493fdfb351106eff3ce952887e884172816a481c02587420a45ee0"),
}


@pytest.mark.parametrize("label", sorted(PINNED_MULTI_BLOCK))
def test_multi_block_run_is_pinned(reference, label):
    sc = reference if label == "reference" else capacity_one(reference)
    stats, trace = simulate_traced(sc, SimConfig(runs=9000, seed=7))
    stations = "\n".join(map(repr, stats.stations)).encode()
    assert (hashlib.sha256(stations).hexdigest(), trace_digest(trace)) == \
        PINNED_MULTI_BLOCK[label]


def test_concurrent_runs_under_fast_switching_are_pinned(reference):
    # four runs at once, each with its own worker thread, and the interpreter
    # switching threads every microsecond: a draw taken out of order or a
    # block served before its arrivals are in would change the digest
    stats = [None] * 4

    def run(i):
        stats[i] = run_simulation(reference, SimConfig(runs=9000, seed=7))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(stats))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got in stats:
        stations = "\n".join(map(repr, got.stations)).encode()
        assert hashlib.sha256(stations).hexdigest() == PINNED_MULTI_BLOCK["reference"][0]


# ---------------------------------------------------------------------------
# physics of a run


def test_zero_incident_headways_are_exact(reference):
    sc = no_incident(reference)
    stats, trace = simulate_traced(sc, SimConfig(runs=300, seed=5))
    assert np.all(trace["headways"] == sc.route.nominal_headway)
    for st in stats.stations:
        assert st.headway_mean == sc.route.nominal_headway
        assert st.headway_var == 0.0


def test_zero_incident_wait_is_half_headway(reference):
    # deterministic headways and spare capacity: a passenger waits U(0, H)
    sc = no_incident(reference)
    stats = run_simulation(sc, SimConfig(runs=2000, seed=19))
    st = stats.stations[0]
    h = sc.route.nominal_headway
    assert abs(st.w_mean - h / 2) < 3 * st.w_mean_se
    assert abs(st.w_var - h * h / 12) < 0.3


def test_realized_headway_tracks_truncated_mean(reference):
    stats = run_simulation(reference, SimConfig(runs=5000, seed=23))
    for n in (1, 5, 9):
        mean, var, _ = headway.truncated_headway_moments(
            headway.truncated_headway(reference, n))
        st = stats.stations[n - 1]
        assert st.headway_mean == pytest.approx(mean, abs=0.35)
        assert st.headway_var == pytest.approx(var, rel=0.15)


def test_passenger_conservation(reference):
    _, trace = simulate_traced(reference, SimConfig(runs=500, seed=13))
    assert np.all(trace["boarded"] <= trace["arrived"])
    np.testing.assert_array_equal(
        trace["arrived"] - trace["boarded"], trace["final_queue"])
    assert trace["load_max"] <= reference.route.capacity


def test_terminal_station_empties_vehicles(reference):
    # everyone alights at the last stop and nobody boards there
    stats, trace = simulate_traced(reference, SimConfig(runs=300, seed=29))
    assert np.all(trace["final_loads"] == 0)
    last = stats.stations[-1]
    assert last.boarded == 0
    assert math.isnan(last.w_mean) and math.isnan(last.w_var)


def test_capacity_one_line_leaves_queue_behind():
    sc = capacity_one(model.reference_scenario())
    _, trace = simulate_traced(sc, SimConfig(runs=300, seed=31))
    assert trace["load_max"] <= 1
    assert trace["final_queue"].sum() > 0


def traced_peak(scenario, runs):
    run_simulation(scenario, SimConfig(runs=200, seed=5))  # warm imports and caches
    tracemalloc.start()
    try:
        run_simulation(scenario, SimConfig(runs=runs, seed=5))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_grows_with_runs_not_passengers(reference):
    # O(runs) plus two blocks of arrivals, the one served and the one drawn
    # ahead, ~2.36 MB; holding station 4's whole-run arrival times and gaps
    # would add ~5 MB, and keeping the previous station's pass while the
    # next is drawn ~0.8 MB
    assert traced_peak(reference, 20_000) < 2.8e6


def test_memory_does_not_grow_with_passengers(reference, reference_report):
    # doubling the demand of a stable line adds ~173k arrivals at station 4
    # over 20k vehicles; holding them at 8 bytes each would take 1.4 MB
    low = dataclasses.replace(
        reference, route=dataclasses.replace(reference.route, demand_factor=0.4))
    assert all(st.stable for st in reference_report.stations)
    assert all(st.stable for st in solver.analyze_route(low).stations)
    assert reference.route.demand_factor == 0.8
    assert abs(traced_peak(reference, 20_000) - traced_peak(low, 20_000)) < 0.4e6


class _ShortGaps:
    """Stands in for a Generator: gaps about half the mean, so that one chunk
    of draws never covers the horizon."""

    def __init__(self):
        self.rng = np.random.default_rng(3)
        self.drawn = []

    def standard_exponential(self, size):
        self.drawn.append(0.5 + 0.01 * self.rng.random(size))
        return self.drawn[-1].copy()


class _Chunked:
    """Stands in for a Generator: hands out a Philox stream's exponential gaps
    in the chunk sizes given, whatever size is asked for."""

    def __init__(self, seed, sizes):
        self.rng, self.sizes = philox(seed), list(sizes)

    def standard_exponential(self, size):
        return self.rng.standard_exponential(self.sizes.pop(0))


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_poisson_process_cumsum_spans_chunks():
    gen = _ShortGaps()
    [chunks] = _arrival_chunks(gen, 2.0, [500.0])
    assert len(chunks) == len(gen.drawn) >= 2
    want = np.cumsum(np.concatenate(gen.drawn)) / 2.0
    np.testing.assert_array_equal(np.concatenate(chunks), want)
    assert want[-len(gen.drawn[-1]) - 1] <= 500.0 < want[-1]  # no chunk too many
    # any chunk sizes give the whole-run cumsum(gaps) / rate bit for bit
    whole = np.cumsum(philox(9).standard_exponential(3000)) / 0.7
    for sizes in ([3000], [1, 2999], [7, 1000, 3, 1990], [16] * 187 + [8]):
        [chunks] = _arrival_chunks(_Chunked(9, sizes), 0.7, [whole[-2]])
        np.testing.assert_array_equal(np.concatenate(chunks), whole)
    # the running sum carries on from one horizon's chunks to the next's
    blocks = list(_arrival_chunks(_Chunked(9, [1000, 2000]), 0.7, [whole[998], whole[2998]]))
    assert list(map(len, blocks)) == [1, 1]
    np.testing.assert_array_equal(np.concatenate(blocks[0] + blocks[1]), whole)
    # without arrivals nothing is drawn
    assert list(_arrival_chunks(None, 0.0, [1.0, 2.0])) == [[], []]
    # chunks that do not fit move the waiting passengers to the front of a
    # new buffer with as much room again; boarders are dropped
    buf, head, end = _append(np.empty(0), 0, 0, blocks[0])
    buf, head, end = _append(buf, 600, end, blocks[1])
    assert (head, end, len(buf)) == (0, len(whole[600:]), len(whole[600:]) + 400)
    np.testing.assert_array_equal(buf[:end], whole[600:])
    # chunks that fit go into the spare room
    assert _append(buf, 0, end, [whole[:400]])[0] is buf


def test_unstable_station_copies_arrivals_linearly(monkeypatch):
    # A capacity-1 line at eight times its demand draws 5.8e6 arrival times
    # over 10k vehicles and keeps most of them queued.  Moving the queue into
    # a new buffer at every block would copy 29 times as many as are drawn;
    # the buffer's spare room keeps it under twice.  Every write to the
    # buffer goes through _append, which moves the waiting passengers when a
    # new buffer replaces the old one.
    sc = capacity_one(model.reference_scenario())
    sc = dataclasses.replace(sc, route=dataclasses.replace(sc.route, demand_factor=8.0))
    counts = {"drawn": 0, "moved": 0}

    def counted(buf, head, end, chunks):
        appended = _append(buf, head, end, chunks)
        counts["drawn"] += sum(map(len, chunks))
        if appended[0] is not buf:
            counts["moved"] += end - head
        return appended

    monkeypatch.setattr(simulator, "_append", counted)
    stats = run_simulation(sc, SimConfig(runs=10_000, seed=7))
    assert min(st.q_mean for st in stats.stations[:-1]) > 5e4  # queues grow all run
    assert counts["drawn"] > 5e6
    assert counts["moved"] < 2 * counts["drawn"]


def test_ahead_stays_one_item_ahead():
    # the first item is asked for at once, each later one when the caller
    # takes the one before; an item's exception reaches the caller that takes it
    made = []

    def items():
        for i in range(3):
            made.append(i)
            yield i
        raise KeyError("stub")

    with _Worker() as worker:
        taken = _ahead(worker, items())
        worker.submit(lambda: None)()  # the worker has run every call before this one
        assert made == [0]
        assert next(taken) == 0
        worker.submit(lambda: None)()
        assert made == [0, 1]
        assert list(itertools.islice(taken, 2)) == [1, 2]
        with pytest.raises(KeyError, match="stub"):
            next(taken)


class _FailingDraws:
    """Stands in for a Generator: every draw records its thread and raises."""

    def __init__(self, exc):
        self.exc, self.threads = exc, []

    def _fail(self, *args, **kwargs):
        self.threads.append(threading.current_thread())
        raise self.exc

    binomial = standard_exponential = _fail


def failing_stream(monkeypatch, kind, exc):
    """Make every (seed, ``kind``, station) stream a ``_FailingDraws``."""
    stub, stream = _FailingDraws(exc), simulator._stream
    monkeypatch.setattr(simulator, "_stream",
                        lambda seed, k, n: stub if k == kind else stream(seed, k, n))
    return stub


@pytest.mark.parametrize("kind", [simulator._ALIGHTING, simulator._ARRIVALS],
                         ids=["alighting", "arrivals"])
@pytest.mark.parametrize("exc", [RuntimeError("stub draw failed"),
                                 MemoryError("stub draw out of memory")],
                         ids=["RuntimeError", "MemoryError"])
def test_worker_exception_reaches_the_caller(reference, monkeypatch, kind, exc):
    stub = failing_stream(monkeypatch, kind, exc)
    before = threading.enumerate()
    with pytest.raises(type(exc), match=f"^{exc}$"):
        run_simulation(reference, SimConfig(runs=200, seed=1))
    assert stub.threads and threading.main_thread() not in stub.threads
    assert threading.enumerate() == before


def test_worker_memory_error_is_an_input_error(monkeypatch, capsys):
    failing_stream(monkeypatch, simulator._ARRIVALS, MemoryError("stub draw out of memory"))
    assert cli.main(["simulate", "--runs", "200"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: stub draw out of memory\n"


def test_no_thread_outlives_a_run(reference, monkeypatch):
    before = threading.enumerate()
    run_simulation(reference, SimConfig(runs=200, seed=1))
    assert threading.enumerate() == before
    # each station joins its worker before its pass is yielded
    yielded = 0
    for _ in _station_passes(reference, SimConfig(runs=200, seed=1)):
        assert threading.enumerate() == before
        yielded += 1
    assert yielded == reference.route.num_stations
    # closing the passes after the first one leaves no thread either
    passes = _station_passes(reference, SimConfig(runs=200, seed=1))
    next(passes)
    passes.close()
    assert threading.enumerate() == before
    # nor does a run that raises between two stations
    def fail(*args):
        raise ArithmeticError("stub")

    monkeypatch.setattr(simulator, "_ratio_se", fail)
    with pytest.raises(ArithmeticError, match="^stub$"):
        run_simulation(reference, SimConfig(runs=200, seed=1))
    assert threading.enumerate() == before


def test_suspended_passes_do_not_hold_up_exit():
    # the generator below is never closed, so it is still suspended when the
    # interpreter exits
    code = ("from transitq import model\n"
            "from transitq.simulator import SimConfig, _station_passes\n"
            "passes = _station_passes(model.reference_scenario(), SimConfig(runs=200))\n"
            "next(passes)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("cap,alpha,rate", [
    (1, 0.0, 0.5), (1, 0.5, 2.0), (1, 1.0, 0.4),
    (34, 0.0, 3.0), (34, 0.3, 6.0), (34, 1.0, 1.0), (5, 0.2, 0.0),
])
def test_queue_pass_matches_vehicle_loop(monkeypatch, cap, alpha, rate):
    rng = np.random.default_rng(1000 * cap + int(10 * rate))
    runs = 3000
    depart = np.cumsum(np.maximum(0.0, rng.normal(6.0, 4.0, runs)))  # some zero headways
    arrivals = np.empty(0)
    if rate > 0:
        arrivals = np.cumsum(philox(cap).standard_exponential(
            int(rate * depart[-1] * 1.2) + 100)) / rate
        assert arrivals[-1] > depart[-1]
    k = np.diff(np.searchsorted(arrivals, depart, side="right"), prepend=0)
    loads = rng.integers(0, cap + 1, runs)
    stay = loads - rng.binomial(loads, alpha)
    want_q, want_board, want_left, want_sum, want_sq = oracles.fifo_queue_loop(
        k, stay, cap, arrivals, depart)
    q_seen, board, left = _queue_pass(k, stay, cap)
    np.testing.assert_array_equal(q_seen, want_q)
    np.testing.assert_array_equal(board, want_board)
    np.testing.assert_array_equal(left, want_left)
    # the run split anywhere, the second part started from the carried queue
    for cut in (1, 1234, runs - 1):
        head = _queue_pass(k[:cut], stay[:cut], cap)
        tail = _queue_pass(k[cut:], stay[cut:], cap, head[2][-1])
        for part, want in zip(zip(head, tail), (want_q, want_board, want_left)):
            np.testing.assert_array_equal(np.concatenate(part), want)
    # streamed in blocks of vehicles: blocks of whole vehicles add each
    # vehicle's waits in the same order, whatever the block size
    passes = []
    for vehicles, expected in ((4096, 16384), (1, 16384), (7, 16384), (1000, 16384),
                               (4096, 1), (4096, 100)):
        monkeypatch.setattr(simulator, "_BLOCK_VEHICLES", vehicles)
        monkeypatch.setattr(simulator, "_BLOCK_ARRIVALS", expected)
        ends = _block_ends(runs, rate * depart[-1])
        with _Worker() as worker:
            arrivals = _ahead(worker, _arrival_chunks(philox(cap), rate, depart[ends - 1]))
            passes.append(_station_pass(arrivals, ends, depart, stay, cap))
    s_k, s_q, s_board, s_left, w_sum, w_sq = passes[0]
    for got, want in zip((s_k, s_q, s_board, s_left), (k, want_q, want_board, want_left[-1])):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(w_sum, want_sum, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(w_sq, want_sq, rtol=1e-12, atol=0.0)
    for other in passes[1:]:
        for got, want in zip(other, passes[0]):
            np.testing.assert_array_equal(got, want)
    if cap == 1 and rate > 0:
        assert left.max() > 0  # the one-seat line does build a queue


@pytest.mark.parametrize("length", [2, 99, 100, 101, 900, 45_000])
def test_ratio_se_matches_array_split_batches(length):
    # the batch sums are taken as reshaped rows, not one np.array_split batch
    # at a time; each row is summed like its batch, so the result is the same
    # float, for float and int sums and with batches that have no counts
    rng = np.random.default_rng(length)
    waits = rng.exponential(3.0, length) * rng.integers(0, 5, length)
    queue = rng.integers(0, 80, length)
    board = rng.integers(0, 4, length)
    board[: length // 2] = 0  # the first half of the batches count nobody
    cases = [(queue, np.ones_like(queue)), (waits, board), (queue, board),
             (waits, np.ones(length, dtype=np.int64))]
    for sums, counts in cases:
        # exact equality; NaN (fewer than two batches with counts) equals NaN
        np.testing.assert_equal(simulator._ratio_se(sums, counts),
                                oracles.ratio_se_split(sums, counts))


# ---------------------------------------------------------------------------
# theory-vs-simulation comparison


def stats_like(report, overrides=None):
    """SimStats echoing the analytical values, so compare() sees zero gaps."""
    rows = []
    for th in report.stations:
        vals = dict(
            station=th.station, q_mean=th.eq, q_var=th.varq, q_mean_se=0.0,
            w_mean=th.ew, w_var=th.varw, w_mean_se=0.0,
            headway_mean=0.0, headway_var=0.0, boarded=1000)
        vals.update((overrides or {}).get(th.station, {}))
        rows.append(StationSimStats(**vals))
    return SimStats(label=report.label, runs=1000, seed=0, warmup=0.1,
                    stations=tuple(rows))


def test_compare_passes_on_echoed_theory(reference_report):
    table = compare(reference_report, stats_like(reference_report))
    assert isinstance(table, ComparisonTable)
    assert table.passed
    assert table.label == reference_report.label
    statuses = {row.station: row.status for row in table.rows}
    assert statuses[10] == "excluded-no-arrivals"
    assert all(statuses[n] == "pass" for n in range(1, 10))


def test_compare_flags_discrepancy(reference_report):
    bad = stats_like(reference_report, {3: {"q_mean": 99.0}})
    table = compare(reference_report, bad)
    assert not table.passed
    assert table.rows[2].status == "fail"
    assert table.rows[2].eq_gap == pytest.approx(99.0 - reference_report.stations[2].eq)
    # the other stations are untouched
    assert table.rows[0].status == "pass"


def test_compare_tolerance_scaling(reference_report):
    table = compare(reference_report, stats_like(reference_report), tol_mean=0.16)
    row = table.rows[3]
    assert row.eq_tol == pytest.approx(max(0.6, 0.16 * row.eq_theory))
    assert row.ew_tol == pytest.approx(max(0.4, 0.16 * row.ew_theory))
    # zero tolerance gives zero floors, so any gap at all fails
    strict = compare(reference_report, stats_like(
        reference_report, {1: {"q_mean": reference_report.stations[0].eq + 1e-6}}),
        tol_mean=0.0)
    assert strict.rows[0].status == "fail"


@pytest.mark.parametrize("tols", [{"tol_mean": -1.0}, {"tol_sd": -0.5},
                                  {"tol_mean": math.nan}, {"tol_sd": math.nan}])
def test_compare_rejects_negative_or_nan_tolerance(reference_report, tols):
    # a tolerance no gap can meet, or one every comparison ignores, is an
    # input error rather than a verdict
    with pytest.raises(ValueError, match="tolerances must be non-negative"):
        compare(reference_report, stats_like(reference_report), **tols)


def test_compare_sd_gate(reference_report):
    inflated = stats_like(
        reference_report,
        {2: {"q_var": reference_report.stations[1].varq * 1.5}})
    table = compare(reference_report, inflated, tol_sd=0.12)
    assert table.rows[1].status == "fail"
    assert table.rows[1].q_sd_rel_gap == pytest.approx(math.sqrt(1.5) - 1.0)
    relaxed = compare(reference_report, inflated, tol_sd=0.3)
    assert relaxed.rows[1].status == "pass"


def test_compare_excludes_unstable_station(reference):
    inc = dataclasses.replace(reference.incidents, rate=1.0 / 3.0)
    congested = dataclasses.replace(reference, incidents=inc, label="congested")
    report = solver.analyze_route(congested)
    table = compare(report, stats_like(report))
    assert table.rows[4].status == "excluded-unstable"
    assert math.isnan(table.rows[4].eq_gap)
    # exclusions do not veto the table
    assert all(r.status != "fail" for r in table.rows)
    assert table.passed


def test_compare_rejects_mismatched_tables(reference_report):
    stats = stats_like(reference_report)
    short = SimStats(label=stats.label, runs=stats.runs, seed=0, warmup=0.1,
                     stations=stats.stations[:4])
    with pytest.raises(ValueError, match="different station counts"):
        compare(reference_report, short)


def test_compare_rejects_mismatched_labels(reference_report):
    other = dataclasses.replace(stats_like(reference_report), label="congested")
    with pytest.raises(ValueError, match="label mismatch: theory 'reference' "
                                         "vs simulation 'congested'"):
        compare(reference_report, other)


def test_small_run_matches_theory_loosely(reference, reference_report):
    # a quick end-to-end shake-out; the acceptance suite does the full-length one
    stats = run_simulation(reference, SimConfig(runs=3000, seed=42))
    table = compare(reference_report, stats, tol_mean=0.25, tol_sd=0.35)
    statuses = [row.status for row in table.rows]
    assert statuses.count("pass") >= 7
