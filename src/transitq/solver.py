"""Analytical pipeline: alighting/boarding recursions, station solve, moments.

Stations are processed in order; the load distribution leaving station n
becomes the arriving-load distribution at n+1.  ``alight`` thins it
binomially and ``board`` refills it from the queue front, both on pmf
vectors, with no transition matrix.  Per station the available
space S (capacity minus surviving load) and arrival count A define a
bulk-service queue whose steady state at vehicle arrivals is solved by a
Wiener-Hopf factorization of 1 - J, J the PGF of A - S, read off the
first FFT circle whose samples pass an argument-principle census and a fold
check (``factorize``); the queue front and the moments follow from it with
no root of the PGF denominator.  The C in-disk roots the paper's closed forms
use are still each station's ``roots``, searched for and certified only
when read (``PendingRoots``).  C is the route capacity: the factorization
and the root search get the space pmf s_0..s_C as the recursion built it,
with no cut of its small top entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .headway import (ArrivalMoments, HeadwayModel, truncated_headway,
                      y_moments, y_pgf)
from .model import Scenario, require_valid
from .roots import SolverError, find_all_roots

UNBOUNDED = math.inf        # sentinel for moments of an unstable station


class StationSolveError(SolverError):
    """Numeric failure of one station, tagged with the 1-based station and
    the stage that failed: "factorization", "front" or "moments" inside
    analyze_route, or "roots" when its root set is read."""

    def __init__(self, station: int, message: str, stage: str):
        super().__init__(f"station {station}: {message}")
        self.station = station
        self.message = message
        self.stage = stage

    def __reduce__(self):
        # rebuilt from every argument, so it crosses a process pool intact
        return type(self), (self.station, self.message, self.stage)


class DiscreteDist:
    """Probability vector over passenger counts 0..C.

    Entries in [-1e-12, 0) are treated as roundoff and clamped to zero;
    anything more negative, or not finite, signals a solver bug and raises.
    The vector is renormalized exactly after the sum is confirmed within 1e-9
    of one.
    """

    __slots__ = ("probs", "_mean")

    def __init__(self, probs):
        arr = np.array(probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("distribution must be a nonempty 1-D vector")
        if not np.isfinite(arr).all():
            raise ValueError("distribution has a non-finite entry")
        low = arr.min()
        if low < -1e-12:
            raise ValueError(f"distribution entry {low:.3e} below the -1e-12 clamp floor")
        arr[arr < 0.0] = 0.0
        total = arr.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"distribution sums to {total!r}, outside 1 +- 1e-9")
        self.probs = arr / total
        self.probs.setflags(write=False)
        self._mean = None

    def __len__(self) -> int:
        return len(self.probs)

    @property
    def mean(self) -> float:
        if self._mean is None:
            self._mean = float(np.arange(len(self.probs)) @ self.probs)
        return self._mean

    @property
    def top_index(self) -> int:
        return len(self.probs) - 1


def point_mass(k: int, capacity: int) -> DiscreteDist:
    v = np.zeros(capacity + 1)
    v[k] = 1.0
    return DiscreteDist(v)


class QueueFront:
    """Steady-state probabilities q_0..q_{C-1} of the queue seen at vehicle arrival."""

    __slots__ = ("q",)

    def __init__(self, q):
        arr = np.array(q, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError("queue front has a non-finite entry")
        if arr.min() < 0.0:
            raise ValueError(f"queue-front entry {arr.min():.3e} negative")
        if arr.sum() > 1.0 + 1e-9:
            raise ValueError(f"queue-front mass {arr.sum()!r} exceeds 1")
        self.q = arr
        self.q.setflags(write=False)


@dataclass(frozen=True, slots=True)
class StationMetrics:
    station: int                     # 1-based
    rho: float
    stable: bool
    eq: float
    varq: float
    ew: float                        # NaN when no passengers arrive here
    varw: float
    roots: tuple[complex, ...] | PendingRoots = ()
    queue_front: QueueFront | None = None
    service_dist: DiscreteDist | None = None
    arrivals: ArrivalMoments | None = None
    arrival_rate: float = 0.0


@dataclass(frozen=True)
class RouteReport:
    label: str
    stations: tuple[StationMetrics, ...]
    headway: tuple[HeadwayModel, ...]

    @property
    def num_stations(self) -> int:
        return len(self.stations)


class PendingRoots:
    """A station's certified root set, searched for when it is first read.

    It reads as the tuple ``find_all_roots`` returns: ``len``, truth,
    indexing and slicing, iteration, ``repr``, ``==``, ``hash`` and pickling
    each run the search the first time, and this object keeps its result.  A
    search that fails raises ``StationSolveError`` with stage "roots",
    naming the station, at every read.  It keeps the rate and the headway
    model, not a ``y_pgf`` partial, which would add 13% to a C = 34 report.
    """

    __slots__ = ("_station", "_search", "_roots")

    def __init__(self, station: int, s_probs, lam: float, model: HeadwayModel, rho: float):
        self._station = station
        self._search = (s_probs, lam, model, rho)
        self._roots = None

    def _tuple(self) -> tuple[complex, ...]:
        if self._roots is None:
            s_probs, lam, model, rho = self._search
            try:
                self._roots = find_all_roots(s_probs, partial(y_pgf, lam=lam, model=model), rho)
            except (SolverError, ArithmeticError) as exc:
                raise StationSolveError(self._station, str(exc), "roots") from exc
            self._search = None
        return self._roots

    def __len__(self) -> int:
        return len(self._tuple())

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self):
        return iter(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())

    def __eq__(self, other) -> bool:
        if isinstance(other, PendingRoots):
            other = other._tuple()
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __reduce__(self):
        return tuple, (self._tuple(),)


# ---------------------------------------------------------------------------
# Station-to-station recursions


def alight(v: np.ndarray, alpha: float) -> np.ndarray:
    """Surviving-load pmf after each rider alights independently w.p. ``alpha``.

    Binomial thinning G(z) = V(alpha + (1 - alpha) z), by Horner's rule over
    the load pmf ``v``: acc <- alpha * acc + (1 - alpha) * shift(acc), then
    acc_0 += v_i.  Every term is non-negative, so nothing cancels; subnormal
    alpha and alpha in {0, 1} need no special case.  Steps run in place on
    views made once, with 0-d array factors and acc_0 a Python float.
    """
    acc, tmp = np.zeros(len(v)), np.empty(len(v) - 1)
    top, low, acc0 = acc[1:], acc[:-1], 0.0
    off, keep = np.array(alpha), np.array(1.0 - alpha)
    for vi in v[::-1].tolist():
        np.multiply(low, keep, tmp)
        np.multiply(top, off, top)
        np.add(top, tmp, top)
        acc0 = alpha * acc0 + vi
        acc[0] = acc0
    return acc


def board(g: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Departing-load pmf from the surviving load ``g`` and the queue front ``q``.

    From load i < C the vehicle leaves with j < C when exactly j - i riders
    were queued, a truncated convolution, and leaves full when at least
    C - i were.  That tail is clamped at zero, since the front's own roundoff
    allowance (mass within 1e-9 above one) may push it a hair below.  ``q``
    holds the C entries q_0..q_{C-1}.
    """
    cap = len(g) - 1
    v = np.empty(cap + 1)
    v[:cap] = np.convolve(g[:cap], q)[:cap]
    v[cap] = g[:cap] @ np.maximum(0.0, 1.0 - np.cumsum(q))[::-1] + g[cap]
    return v


def utilization(s: DiscreteDist, y: ArrivalMoments) -> tuple[float, bool]:
    """(rho, stable) — arrivals per vehicle over expected free space, strict < 1."""
    s_mean = s.mean
    if s_mean <= 0.0:
        # vehicle always arrives full and nobody alights; nothing can board
        return math.inf, False
    rho = y.mean / s_mean
    return rho, rho < 1.0


# ---------------------------------------------------------------------------
# Queue front checks


def normalization_gap(s, q, s_mean: float, y_mean: float) -> float:
    """|sum_u s_u sum_{i<u} q_i (u-i) - (S_mean - Y_mean)|.

    The left side is the expected unused boarding space; equality with the
    mean drift is the L'Hopital normalization of the queue PGF at z=1.
    """
    probs = np.asarray(getattr(s, "probs", s), dtype=float)
    qv = np.asarray(getattr(q, "q", q), dtype=float)
    # sum_{i<u} q_i (u-i) = u * A_m - B_m with prefix sums A, B to m = min(u, len q)
    a = np.concatenate([[0.0], np.cumsum(qv)])
    b = np.concatenate([[0.0], np.cumsum(np.arange(len(qv)) * qv)])
    u = np.arange(len(probs))
    m = np.minimum(u, len(qv))
    return abs(probs @ (u * a[m] - b[m]) - (s_mean - y_mean))


def _front_diagnostics(raw_q: np.ndarray, s, s_mean: float, y_mean: float) -> np.ndarray:
    bad = np.count_nonzero(~np.isfinite(raw_q))
    if bad:
        raise SolverError(f"{bad} of {len(raw_q)} queue-front entries are not finite")
    if raw_q.min() < -1e-9:
        raise SolverError(f"queue-front entry {raw_q.min():.3e} below -1e-9")
    q = np.clip(raw_q, 0.0, None)
    if q.sum() > 1.0 + 1e-9:
        raise SolverError(f"queue-front mass {q.sum()!r} exceeds 1 + 1e-9")
    gap = normalization_gap(s, q, s_mean, y_mean)
    if gap > 1e-8:
        raise SolverError(f"normalization identity off by {gap:.3e}")
    return q


# ---------------------------------------------------------------------------
# Station solve: Wiener-Hopf factorization of g = 1 - J


# the largest Laurent coefficient the middle quarter of a circle's FFT may
# hold, and the most points a circle may take before the ladder gives up
FOLD_TOL = 1e-10
MAX_POINTS = 1 << 20


@dataclass(frozen=True)
class Factorization:
    """log E of one station, read off the circle |w| = ``radius``.

    ``log_e`` holds c_n r^n, n < N/2, where log E~(w) = sum_n c_n w^n and
    E~ = E / (1 - w/x*) (E itself when ``x_star`` is 0); ``y_vals`` is Y on
    the upper half of the circle's N points.  ``at_one``, summed once, is
    (log E(1), (log E)'(1), (log E)''(1)) with the pole at x* put back.
    """

    x_star: float
    radius: float
    log_e: np.ndarray
    y_vals: np.ndarray
    at_one: tuple[float, float, float] = field(init=False)

    def __post_init__(self):
        n = np.arange(len(self.log_e))
        c = self.log_e * self.radius ** -n
        value, slope, curve = c.sum(), n @ c, (n * (n - 1.0)) @ c
        if self.x_star:
            gap = self.x_star - 1.0
            value += math.log1p(-1.0 / self.x_star)
            slope -= 1.0 / gap
            curve -= 1.0 / gap**2
        object.__setattr__(self, "at_one", (value, slope, curve))


def _jump(probs: np.ndarray, y_handle, x: np.ndarray) -> np.ndarray:
    """J(x) = Y(x) sum_u s_u x^(-u) at points with |x| >= 1, from one table of
    powers of 1/x, which cannot overflow there."""
    inv = np.cumprod(np.broadcast_to(1.0 / x[:, None], (len(x), len(probs) - 1)), axis=1)
    return np.asarray(y_handle(x), dtype=complex) * (probs[0] + inv @ probs[1:])


def _outer_zero(probs: np.ndarray, y_handle) -> float:
    """x* in (1, 1 + 8/C] with J(x*) = 1, or 0 when J < 1 on all of it.

    J(x) = E[x^(A - S)] is real and convex for x > 0, with J(1) = 1 and
    J'(1) = E[A] - E[S] < 0 at a stable station, so above 1 it reaches 1 at
    most once more; as |J(w)| <= J(|w|), that x* is the zero of g nearest
    outside the unit circle.  Sixteen points bracket it, and Newton from the
    bracket's right end, with J' from one complex step, runs it to the last
    bits (an x* off by 3e-8 moves E[Q] by 5e-8 relative): a step of at most
    4e-16 x ends the search, even at a bracket end.  A J that overflows
    reads as beyond x*; only that or a step out of the bracket bisects it.
    Before the bracket: J lies under its chord from J(1) = 1, so a real
    J(1 + 8/C) < 1 - 1e-9 holds all sixteen points under 1 - 6e-11: no x*.
    """
    cap = len(probs) - 1
    right = 1.0 + 8.0 / cap
    if y_handle(right) * (probs @ right ** -np.arange(cap + 1.0)) < 1.0 - 1e-9:
        return 0.0
    grid = 1.0 + (8.0 / cap) * np.arange(1, 17) / 16.0
    beyond = ~(_jump(probs, y_handle, grid).real < 1.0)
    if not beyond.any():
        return 0.0
    k = int(np.argmax(beyond))
    lo, hi = (grid[k - 1] if k else 1.0), grid[k]
    x = hi
    for _ in range(64):
        val = _jump(probs, y_handle, np.array([complex(x, 1e-20)]))[0]
        if val.real < 1.0:
            lo = x
        else:
            hi = x
        step = (val.real - 1.0) / (val.imag * 1e20)
        if abs(step) <= 4e-16 * x:
            return x - step
        nxt = x - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 4e-16 * x or hi - lo <= 4e-16 * hi:
            return nxt
        x = nxt
    return x


def _g_on_circle(probs: np.ndarray, y_handle, radius: float, n_points: int,
                 x_star: float) -> tuple[np.ndarray, np.ndarray]:
    """(Y, g~) at the N/2 + 1 points of angle in [0, pi] on |w| = ``radius``.

    g = 1 - Y(w) sum_u s_u w^(-u), the sum one real FFT of s_u r^(-u); with
    x* given, g~ = g / (1 - w/x*).  No Y divides anything, so a Y that
    underflows costs nothing.
    """
    w = radius * np.exp(2j * np.pi / n_points * np.arange(n_points // 2 + 1))
    y_vals = np.asarray(y_handle(w), dtype=complex)
    g = 1.0 - y_vals * np.fft.rfft(probs * radius ** -np.arange(len(probs)), n_points)
    if x_star:
        g /= 1.0 - w / x_star
    return y_vals, g


def _phase(g: np.ndarray) -> np.ndarray:
    """Continuous phase of g along the half circle, from its value at angle 0."""
    return np.concatenate(([np.angle(g[0])],
                           np.angle(g[0]) + np.cumsum(np.angle(g[1:] / g[:-1]))))


def factorize(probs: np.ndarray, y_handle) -> Factorization:
    """Split log g = log(1 - J) into its outer and inner parts on a checked circle.

    g = f / w^C with f(w) = w^C - P(w) Y(w), so on a circle between the C
    in-disk zeros of f and its outer ones log g has zero winding, and its
    Laurent series is log prod(1 - z_i / w) (negative powers) plus log E
    (the rest), with E free of zeros inside the circle (Spitzer's identity;
    Janssen & van Leeuwaarden, Stat. Neerl. 62, 2008).  g has real
    coefficients, so the upper half circle carries it.

    With x* = ``_outer_zero`` found, g~ = g / (1 - w/x*) is used and base =
    x*; else g and base = 1.  For a = 8, 4, 2, ... the one circle base
    (1 + a/(2C)), at the next power of two at or above max(1024, 100 C / a)
    points N, must wind 0 times, which makes log g~ single-valued there, and
    hold at most ``FOLD_TOL`` in every coefficient of its FFT's middle
    quarter, a folded tail that winding 0 alone does not rule out.  Raises
    SolverError when no circle of at most ``MAX_POINTS`` points passes.
    """
    cap = len(probs) - 1
    # an overflow or a zero of g leaves a non-finite circle, which fails its check
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x_star = _outer_zero(probs, y_handle)
        base = x_star or 1.0
        a, problem = 8.0, "the first circle alone needs more"
        while True:
            n_points = 1 << max(10, math.ceil(math.log2(100.0 * cap / a)))
            if n_points > MAX_POINTS:
                raise SolverError(f"no circle of up to {MAX_POINTS} points passed: {problem}")
            radius = base * (1.0 + a / (2.0 * cap))
            y_vals, g = _g_on_circle(probs, y_handle, radius, n_points, x_star)
            phase = _phase(g)
            winding = (phase[-1] - phase[0]) / np.pi
            if not abs(winding) < 0.5:
                problem = f"census at a = {a:g} counts winding {winding:.3f}, not 0"
            else:
                coef = np.fft.hfft(np.log(np.abs(g)) + 1j * phase, n_points) / n_points
                fold = np.max(np.abs(coef[3 * n_points // 8:5 * n_points // 8 + 1]))
                if fold <= FOLD_TOL:
                    return Factorization(x_star, radius, coef[:n_points // 2], y_vals)
                problem = f"fold coefficient {fold:.3e} above {FOLD_TOL:g} at a = {a:g}"
            a /= 2.0


def factor_front(fact: Factorization, s: DiscreteDist, y: ArrivalMoments) -> QueueFront:
    """q_0..q_{C-1}, the Taylor coefficients of Q(z) = Y(z) E(1) / E(z).

    With x*, Q = R / (1 - z/x*) and R = Y E(1) / E~, so q_j = r_j + q_{j-1}/x*,
    written as x*^(-j) times a prefix sum of r_k x*^k (x*^C <= e^8).  R is
    sampled on the factorization's own circle, with log E~ there the inverse
    FFT of the kept coefficients, and r_j comes back divided by r^j.
    """
    cap = s.top_index
    n_points = 2 * len(fact.log_e)
    log_e1 = fact.at_one[0]
    # sum_n c_n w^n at the half circle's points: the conjugate of one real FFT
    log_e = np.fft.rfft(fact.log_e, n_points).conj()
    j = np.arange(cap)
    with np.errstate(over="ignore", invalid="ignore"):
        r = (np.fft.hfft(fact.y_vals * np.exp(log_e1 - log_e), n_points)[:cap] / n_points
             * fact.radius ** -j)
        q = r if not fact.x_star else fact.x_star ** -j * np.cumsum(r * fact.x_star ** j)
    return QueueFront(_front_diagnostics(q, s, s.mean, y.mean))


def factor_moments(fact: Factorization, y: ArrivalMoments) -> tuple[float, float]:
    """E[Q] = E[A] - (log E)'(1) and Var[Q] = Var[A] - (log E)''(1) - (log E)'(1).

    Q = L + A with L's PGF E(1) / E(z), so the riders left behind are all
    that the factorization adds to the headway's arrivals A.
    """
    _, slope, curve = fact.at_one
    return y.mean - slope, y.central2 - curve - slope


def wait_moments(eq: float, varq: float, y: ArrivalMoments, lam: float
                 ) -> tuple[float, float]:
    """Mean and variance of an individual passenger's wait.

    The arrival-epoch queue moments are first corrected to time averages
    (the Q_t terms), then Little's law divides by the arrival rate.  Uses the
    central moments of the per-headway arrival count throughout.
    """
    if lam <= 0:
        raise ValueError("waiting time undefined at a station with no arrivals")
    yb, yc2, yc3 = y.mean, y.central2, y.central3
    q_t = eq - yb + 0.5 * (yc2 / yb + yb - 1.0)
    qq_t = varq - yc2 + (4.0 * yb * yc3 + 6.0 * yb * yb * yc2
                         - yb * yb + yb**4 - 3.0 * yc2**2) / (12.0 * yb * yb)
    return q_t / lam, (qq_t - q_t) / (lam * lam)


def _check_moments(eq: float, varq: float, varw: float, y: ArrivalMoments) -> None:
    """Raise SolverError unless E[Q] >= E[A], Var[Q] >= Var[A] and Var[W] >= 0,
    to 1e-9 of each bound, as Q = L + A: the riders left behind plus the
    headway's arrivals A, which are independent of L.  Near an empty station
    the factorization's rounding outgrows the moments and breaks a bound."""
    for name, value, bound in (("E[Q]", eq, y.mean), ("Var[Q]", varq, y.central2),
                               ("Var[W]", varw, 0.0)):
        if not value >= bound * (1.0 - 1e-9):
            raise SolverError(f"{name} = {value:.6g} below its bound {bound:.6g}")


# ---------------------------------------------------------------------------
# Full pipeline


def _solve_station(n: int, s: DiscreteDist, y: ArrivalMoments, lam: float,
                   model: HeadwayModel, rho: float) -> dict:
    """The solved fields of the record of stable station ``n``.

    With no arrivals the queue is empty and the wait undefined (NaN, not
    zero); otherwise the factorization, the queue front and the checked
    moments are solved, and a failure of any stage, arithmetic ones
    included, is raised tagged with the station and stage.  The root set is
    left pending, searched for only when it is read.
    """
    if lam == 0.0:
        return dict(eq=0.0, varq=0.0, ew=math.nan, varw=math.nan,
                    queue_front=QueueFront(np.r_[1.0, np.zeros(s.top_index - 1)]))

    y_handle = partial(y_pgf, lam=lam, model=model)
    stage = "factorization"
    try:
        fact = factorize(s.probs, y_handle)
        stage = "front"
        front = factor_front(fact, s, y)
        stage = "moments"
        eq, varq = factor_moments(fact, y)
        ew, varw = wait_moments(eq, varq, y, lam)
        _check_moments(eq, varq, varw, y)
    except (SolverError, ArithmeticError) as exc:
        raise StationSolveError(n, str(exc), stage) from exc

    return dict(eq=eq, varq=varq, ew=ew, varw=varw, queue_front=front,
                roots=PendingRoots(n, s.probs, lam, model, rho))


def analyze_route(scenario: Scenario) -> RouteReport:
    """Run the station recursion end to end and report per-station metrics.

    An unstable station reports unbounded moments and an all-zero queue
    front, and its vehicle departs full.  Stable stations get their queue
    front, queue/wait moments and a pending root set; those with no
    arrivals get an empty queue, NaN wait moments and no root set.
    """
    require_valid(scenario)
    route = scenario.route
    capacity = route.capacity
    rates = route.arrival_rates()
    alphas = route.alight_probs()

    v = point_mass(0, capacity)
    metrics: list[StationMetrics] = []
    models: list[HeadwayModel] = []
    for n in range(1, route.num_stations + 1):
        lam = rates[n - 1]
        model = truncated_headway(scenario, n)
        models.append(model)
        g = DiscreteDist(alight(v.probs, alphas[n - 1]))
        s = DiscreteDist(g.probs[::-1])
        ym = y_moments(lam, model)
        rho, stable = utilization(s, ym)
        if stable:
            solved = _solve_station(n, s, ym, lam, model, rho)
            v = DiscreteDist(board(g.probs, solved["queue_front"].q))
        else:
            solved = dict(eq=UNBOUNDED, varq=UNBOUNDED, ew=UNBOUNDED, varw=UNBOUNDED,
                          queue_front=QueueFront(np.zeros(capacity)))
            v = point_mass(capacity, capacity)
        metrics.append(StationMetrics(station=n, rho=rho, stable=stable, service_dist=s,
                                      arrivals=ym, arrival_rate=lam, **solved))

    return RouteReport(label=scenario.label, stations=tuple(metrics),
                       headway=tuple(models))
