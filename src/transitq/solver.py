"""Analytical pipeline: alighting/boarding recursions, queue-front solve, moments.

Stations are processed in order; the load distribution leaving station n
becomes the arriving-load distribution at n+1.  Per station the available
space S (capacity minus surviving load) and arrival count Y define a
bulk-service queue whose steady state at vehicle arrivals is recovered from
the C in-disk roots of the PGF denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .headway import (ArrivalMoments, HeadwayModel, truncated_headway,
                      y_moments, y_pgf)
from .model import Scenario, require_valid
from .roots import RootSearchError, find_all_roots, inner_roots

TRIM_EPS = 1e-12           # below this, top-of-range space mass counts as zero

UNBOUNDED = math.inf        # sentinel for moments of an unstable station


class SolverError(RuntimeError):
    pass


class UnstableStationError(SolverError):
    """Queue-front requested for a station with no stationary regime."""


class FrontPrecisionError(SolverError):
    """Solved queue front failed its numerical diagnostics."""


class StationSolveError(SolverError):
    """Numeric failure inside analyze_route, tagged with the 1-based station."""

    def __init__(self, station: int, message: str):
        super().__init__(f"station {station}: {message}")
        self.station = station
        self.message = message

    def __reduce__(self):
        # rebuilt from both arguments, so it crosses a process pool intact
        return type(self), (self.station, self.message)


class DiscreteDist:
    """Probability vector over passenger counts 0..C.

    Entries in [-1e-12, 0) are treated as roundoff and clamped to zero;
    anything more negative, or not finite, signals a solver bug and raises.
    The vector is renormalized exactly after the sum is confirmed within 1e-9
    of one.
    """

    __slots__ = ("probs",)

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

    def __len__(self) -> int:
        return len(self.probs)

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


@dataclass(frozen=True)
class StationMetrics:
    station: int                     # 1-based
    rho: float
    stable: bool
    eq: float
    varq: float
    ew: float                        # NaN when no passengers arrive here
    varw: float
    roots: tuple[complex, ...] = ()
    queue_front: QueueFront | None = None
    effective_capacity: int | None = None
    service_dist: DiscreteDist | None = None
    arrivals: ArrivalMoments | None = None
    arrival_rate: float = 0.0


@dataclass(frozen=True)
class RouteReport:
    label: str
    stations: tuple[StationMetrics, ...]
    headway: tuple[HeadwayModel, ...]
    scenario: Scenario | None = None

    @property
    def num_stations(self) -> int:
        return len(self.stations)


# ---------------------------------------------------------------------------
# Station-to-station recursions


def alighting_matrix(alpha: float, capacity: int) -> np.ndarray:
    """Row-stochastic load-thinning matrix: entry (i, j) = P(j of i stay onboard).

    Row i is the Binomial(i, 1 - alpha) pmf, built by the recurrence
    P_i(j) = alpha * P_{i-1}(j) + (1 - alpha) * P_{i-1}(j - 1): the i-th
    rider alights or stays.  Every term is non-negative, so nothing cancels;
    subnormal alpha and alpha in {0, 1} need no special case.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alighting probability must lie in [0, 1], got {alpha}")
    mat = np.zeros((capacity + 1, capacity + 1))
    mat[0, 0] = 1.0
    for i in range(1, capacity + 1):
        mat[i, :i] = alpha * mat[i - 1, :i]
        mat[i, 1:i + 1] += (1.0 - alpha) * mat[i - 1, :i]
    return mat


def step_alighting(v_prev: DiscreteDist, alpha: float, capacity: int
                   ) -> tuple[DiscreteDist, DiscreteDist]:
    """Thin the arriving load by alighting; mirror into available space.

    Returns (g, s): g is the surviving-load pmf, s the free-space pmf with
    s_k = g_{C-k}.
    """
    g = DiscreteDist(v_prev.probs @ alighting_matrix(alpha, capacity))
    s = DiscreteDist(g.probs[::-1])
    return g, s


def boarding_matrix(queue_front: QueueFront, capacity: int) -> np.ndarray:
    """Row-stochastic load-refill matrix from the queue-front distribution.

    From post-alighting load i the vehicle leaves with j < C whenever exactly
    j - i passengers were queued, and leaves full when at least C - i were.
    """
    q = np.zeros(capacity)
    qq = np.asarray(queue_front.q, dtype=float)
    q[: len(qq)] = qq[:capacity]
    mat = np.zeros((capacity + 1, capacity + 1))
    for i in range(capacity):
        take = capacity - i
        mat[i, i:capacity] = q[:take]
        # tail probability; the front's own roundoff allowance (sum within
        # 1e-9 above one) may push the difference a hair below zero
        mat[i, capacity] = max(0.0, 1.0 - q[:take].sum())
    mat[capacity, capacity] = 1.0
    return mat


def dist_moments(d) -> tuple[float, float, float]:
    """(mean, 2nd central, 3rd central) of a pmf by direct summation."""
    p = np.asarray(getattr(d, "probs", d), dtype=float)
    k = np.arange(len(p))
    mean = float(k @ p)
    dev = k - mean
    return mean, float((dev**2) @ p), float((dev**3) @ p)


def utilization(s: DiscreteDist, y: ArrivalMoments) -> tuple[float, bool]:
    """(rho, stable) — arrivals per vehicle over expected free space, strict < 1."""
    s_mean = dist_moments(s)[0]
    if s_mean <= 0.0:
        # vehicle always arrives full and nobody alights; nothing can board
        return math.inf, False
    rho = y.mean / s_mean
    return rho, rho < 1.0


def den_eval(z, s, y_pgf_handle, space_poly=None):
    """Denominator z^C / Y(z) - sum_u s_u z^{C-u}; zero exactly at the C roots.

    ``space_poly`` is P(z) = sum_u s_u z^{C-u} at ``z`` when the caller
    already has it; otherwise it is evaluated here by Horner's rule.  Raises
    SolverError where Y(z) = 0, which happens once Y underflows.
    """
    probs = np.asarray(getattr(s, "probs", s), dtype=float)
    cap = len(probs) - 1
    arr = np.asarray(z, dtype=complex)
    y_vals = np.asarray(y_pgf_handle(arr), dtype=complex)
    if np.any(y_vals == 0):
        raise SolverError("Y(z) = 0 at a denominator evaluation point")
    if space_poly is None:
        space_poly = np.polyval(probs, arr)
    out = arr**cap / y_vals - space_poly
    return complex(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Queue front


def _real_checked(value: complex, what: str, tol: float = 1e-8) -> float:
    if abs(value.imag) > tol:
        raise FrontPrecisionError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


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
        raise FrontPrecisionError(f"{bad} of {len(raw_q)} queue-front entries are not finite")
    if raw_q.min() < -1e-9:
        raise FrontPrecisionError(f"queue-front entry {raw_q.min():.3e} below -1e-9")
    q = np.clip(raw_q, 0.0, None)
    if q.sum() > 1.0 + 1e-9:
        raise FrontPrecisionError(f"queue-front mass {q.sum()!r} exceeds 1 + 1e-9")
    gap = normalization_gap(s, q, s_mean, y_mean)
    if gap > 1e-8:
        raise FrontPrecisionError(f"normalization identity off by {gap:.3e}")
    return q


def contour_size(capacity: int) -> tuple[float, int]:
    """(radius, points) of the FFT circle for a front of ``capacity`` entries.

    Coefficient j comes back divided by radius^j, so the radius
    max(0.97, 10^(-1/C)) bounds that amplification by 10 at j < C.  The
    point count is the next power of two at or above max(1024, 40/(1-r)),
    which keeps the aliased tail, of order r^N, below e^-40.
    """
    radius = max(0.97, 10.0 ** (-1.0 / capacity))
    need = max(1024.0, 40.0 / (1.0 - radius))
    return radius, 1 << math.ceil(math.log2(need))


def queue_front_contour(s: DiscreteDist, roots: tuple[complex, ...], y: ArrivalMoments,
                        y_pgf_handle) -> QueueFront:
    """Extract q_0..q_{C-1} as power-series coefficients of the queue PGF.

    The PGF is assembled in root-factored form
        Q(z) = (S_mean - Y_mean)(z - 1) prod(z - z_i) / [prod(1 - z_i) Den(z)]
    and integrated over the circle ``contour_size(C)`` inside the unit disk
    via the FFT, with Den from ``den_eval``.  The root product is
    accumulated one root at a time, and P on the circle is one real FFT of
    its scaled coefficients, so no (points x roots) array is built and the
    cost stays O(N C) at any capacity.  Unlike matching polynomial
    coefficients, whose triangular solve divides by s_C, this stays accurate
    when s_C is tiny.  Q has real coefficients and the validated inner roots
    are closed under conjugation, so Q(conj z) = conj Q(z): the samples on
    the lower half circle mirror the upper ones, and only the N/2 + 1 points
    with angle in [0, pi] are evaluated and inverted by ``np.fft.hfft``.
    """
    cap = s.top_index
    s_mean = dist_moments(s)[0]
    if s_mean <= y.mean:
        raise UnstableStationError(
            f"mean free space {s_mean:.6g} does not exceed mean arrivals {y.mean:.6g}")
    inner = inner_roots(roots)
    if len(inner) != cap - 1:
        raise ValueError(f"expected {cap - 1} non-unit roots, got {len(inner)}")
    scale = (s_mean - y.mean) / _real_checked(
        complex(np.prod(1.0 - inner)) if len(inner) else 1.0 + 0j,
        "root product normalizer")

    radius, n_points = contour_size(cap)
    theta = 2.0 * np.pi * np.arange(n_points // 2 + 1) / n_points
    z = radius * np.exp(1j * theta)
    # an overflow here leaves a non-finite front, which the diagnostics reject
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = scale * (z - 1.0)
        for root in inner:
            num *= z - root
        # P(z_j) = sum_k s_{C-k} r^k e^{+2 pi i jk/N}: the conjugate of one real FFT
        space_poly = np.fft.rfft(s.probs[::-1] * radius ** np.arange(cap + 1), n_points).conj()
        den = den_eval(z, s, y_pgf_handle, space_poly)
        # hfft(x, N) is the (real) forward FFT of the Hermitian extension of x
        coef = np.fft.hfft(num / den, n_points) / n_points
        q = coef[:cap] / radius ** np.arange(cap)
    return QueueFront(_front_diagnostics(q, s, s_mean, y.mean))


# ---------------------------------------------------------------------------
# Closed-form moments


def queue_moments(s_mom: tuple[float, float, float], y: ArrivalMoments,
                  roots: tuple[complex, ...]) -> tuple[float, float]:
    """Mean and variance of the queue at vehicle arrival, central-moment form.

    Each expression splits into a moment part and a sum over the non-unit
    roots; conjugate pairs make the root sums real.
    """
    s_mean, s_c2, s_c3 = s_mom
    y_mean, y_c2, y_c3 = y.mean, y.central2, y.central3
    drift = s_mean - y_mean
    if drift <= 0:
        return UNBOUNDED, UNBOUNDED
    cap = len(roots)
    inner = inner_roots(roots)
    sum1 = _real_checked(complex(np.sum(1.0 / (1.0 - inner))) if len(inner) else 0j,
                         "first root sum")
    sum2 = _real_checked(complex(np.sum(inner / (1.0 - inner) ** 2)) if len(inner) else 0j,
                         "second root sum")
    eq = (s_c2 + y_c2 + drift * (1.0 + 2.0 * (s_mean - cap)) - drift**2) / (2.0 * drift) + sum1
    varq = (-4.0 * (s_c3 - y_c3) * drift + 3.0 * (s_c2 + y_c2) ** 2
            - (6.0 * (s_c2 - y_c2) - 1.0) * drift**2 - drift**4) / (12.0 * drift**2) - sum2
    return eq, varq


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


# ---------------------------------------------------------------------------
# Full pipeline


def _effective_capacity(probs: np.ndarray) -> int:
    nz = np.nonzero(probs > TRIM_EPS)[0]
    return int(nz[-1]) if len(nz) else 0


def trimmed_space(s: DiscreteDist) -> DiscreteDist:
    """The space pmf cut at the effective capacity, its last entry above TRIM_EPS."""
    ceff = _effective_capacity(s.probs)
    return s if ceff == s.top_index else DiscreteDist(s.probs[: ceff + 1])


def _solve_station(base: StationMetrics, model: HeadwayModel) -> StationMetrics:
    """The record of one stable station, filled in from its unsolved ``base``.

    With no arrivals the queue is empty and the wait undefined (NaN, not
    zero); otherwise the roots, the queue front and the moments are solved,
    and any failure of those stages is raised tagged with the station.
    """
    n, s, y, lam = base.station, base.service_dist, base.arrivals, base.arrival_rate
    s_eff = trimmed_space(s)
    if lam == 0.0:
        return replace(base, eq=0.0, varq=0.0, ew=math.nan, varw=math.nan,
                       queue_front=QueueFront(np.r_[1.0, np.zeros(s.top_index - 1)]),
                       effective_capacity=s_eff.top_index)
    if s_eff.top_index < 1:
        raise StationSolveError(n, "available space distribution is numerically degenerate")

    y_handle = partial(y_pgf, lam=lam, model=model)
    try:
        roots = find_all_roots(s_eff.probs, y_handle, base.rho)
        front = queue_front_contour(s_eff, roots, y, y_handle)
    except (RootSearchError, SolverError) as exc:
        raise StationSolveError(n, str(exc)) from exc

    eq, varq = queue_moments(dist_moments(s_eff), y, roots)
    ew, varw = wait_moments(eq, varq, y, lam)
    padded = np.zeros(s.top_index)
    padded[: len(front.q)] = front.q
    return replace(base, eq=eq, varq=varq, ew=ew, varw=varw, roots=roots,
                   queue_front=QueueFront(padded), effective_capacity=s_eff.top_index)


def analyze_route(scenario: Scenario) -> RouteReport:
    """Run the station recursion end to end and report per-station metrics.

    Every station starts from the record of an unstable one: unbounded
    moments, an all-zero queue front, and a vehicle that departs full.
    Stable stations then get roots, queue front, and queue/wait moments;
    those with no arrivals get an empty queue and NaN wait moments.
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
        g, s = step_alighting(v, alphas[n - 1], capacity)
        ym = y_moments(lam, model)
        rho, stable = utilization(s, ym)
        sm = StationMetrics(station=n, rho=rho, stable=stable,
                            eq=UNBOUNDED, varq=UNBOUNDED, ew=UNBOUNDED, varw=UNBOUNDED,
                            queue_front=QueueFront(np.zeros(capacity)),
                            service_dist=s, arrivals=ym, arrival_rate=lam)
        if stable:
            sm = _solve_station(sm, model)
            v = DiscreteDist(g.probs @ boarding_matrix(sm.queue_front, capacity))
        else:
            v = point_mass(capacity, capacity)
        metrics.append(sm)

    return RouteReport(label=scenario.label, stations=tuple(metrics),
                       headway=tuple(models), scenario=scenario)
