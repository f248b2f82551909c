"""Independent oracles for the test suite.

Everything here deliberately takes a different route than the production
code: brute-force Markov chains, dense transition matrices, series inversion
through the FFT, contour winding counts, companion-matrix polynomial roots,
high-order finite differences, and Monte Carlo.  Slower and cruder, but with
failure modes unrelated to the pipeline's, which is the point.
"""

from __future__ import annotations

import math

import numpy as np

from transitq.headway import ArrivalMoments, HeadwayModel, y_pgf
from transitq.model import Scenario, adjusted_headway, travel_time_to
from transitq.roots import SolverError
from transitq.solver import (UNBOUNDED, DiscreteDist, QueueFront,
                             _front_diagnostics)

TWO_PI = 2.0 * math.pi

# queue_front's triangular solve divides by s_C, so its error grows like
# eps / s_C; at or below this s_C the coefficient-matching front is refused
S_TOP_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Series / polynomial machinery


def arrival_pmf(lam: float, model: HeadwayModel, size: int = 4096) -> np.ndarray:
    """Invert the arrival-count PGF on the unit circle to a pmf of length ``size``."""
    t = np.arange(size) * (TWO_PI / size)
    vals = y_pgf(np.exp(1j * t), lam, model)
    pmf = np.fft.fft(vals).real / size  # forward kernel e^{-ijk} reads coefficients
    return np.clip(pmf, 0.0, None)


def _drop_noise_tail(pmf: np.ndarray, floor: float = 1e-16) -> np.ndarray:
    """Drop the FFT noise tail: keep through the last entry above ``floor``."""
    nz = np.nonzero(pmf > floor)[0]
    return pmf[: nz[-1] + 1] if len(nz) else pmf[:1]


def char_poly_coeffs(s_probs: np.ndarray, lam: float, model: HeadwayModel,
                     capacity: int) -> np.ndarray:
    """Ascending coefficients of z^C - (sum_u s_u z^{C-u}) * Y(z), truncated.

    Y's series is cut at the FFT noise floor; the result is a plain
    polynomial whose in-disk zeros approximate the queue characteristic
    roots.  Near-cancellation between the z^C term and the product limits
    the root accuracy to roughly 1e-4 in stiff regimes, so callers should
    match root sets with a loose tolerance or polish after.
    """
    pmf = _drop_noise_tail(arrival_pmf(lam, model))
    s_asc = np.asarray(s_probs, dtype=float)[::-1]  # coeff of z^j is s_{C-j}
    coeffs = -np.convolve(s_asc, pmf)
    if len(coeffs) < capacity + 1:
        coeffs = np.r_[coeffs, np.zeros(capacity + 1 - len(coeffs))]
    coeffs[capacity] += 1.0
    return coeffs


def poly_roots_in_disk(s_probs: np.ndarray, lam: float, model: HeadwayModel,
                       capacity: int, slack: float = 1e-6) -> np.ndarray:
    """Characteristic roots inside |z| <= 1 + slack via the companion matrix."""
    coeffs = char_poly_coeffs(s_probs, lam, model, capacity)
    roots = np.roots(coeffs[::-1])
    return roots[np.abs(roots) <= 1.0 + slack]


def winding_count(handle, radius: float = 1.0 + 1e-6,
                  m0: int = 4096, max_m: int = 2 ** 20) -> float:
    """Zeros-minus-poles count of ``handle`` inside ``radius`` by argument sums.

    Doubles the sample count until every discrete phase step is safely below
    pi, then returns the total winding (a near-integer when resolved).
    """
    m = m0
    while True:
        t = np.arange(m) * (TWO_PI / m)
        vals = np.asarray(handle(radius * np.exp(1j * t)), dtype=complex)
        dphi = np.angle(np.roll(vals, -1) / vals)
        if np.max(np.abs(dphi)) < 2.5 or m >= max_m:
            break
        m *= 2
    return float(np.sum(dphi) / TWO_PI)


def char_winding(s_probs, lam: float, model: HeadwayModel, capacity: int,
                 **kwargs) -> float:
    """Argument-principle zero count of z^C - (sum_u s_u z^{C-u}) Y(z).

    This entire function has exactly the characteristic roots as zeros; the
    quotient form z^C/Y - sum_u s_u z^{C-u} must NOT be wound instead, since
    in-disk zeros of Y appear there as poles and cancel part of the count.
    """
    probs = np.asarray(getattr(s_probs, "probs", s_probs), dtype=float)

    def entire_form(z):
        return z**capacity - np.polyval(probs, z) * np.asarray(y_pgf(z, lam, model))

    return winding_count(entire_form, **kwargs)


def den(z, s_probs, lam: float, model: HeadwayModel) -> np.ndarray:
    """Den(z) = z^C / Y(z) - sum_u s_u z^{C-u} from its formula, C = len(s_probs) - 1.

    P by Horner's rule and Y by one ``y_pgf`` call: none of the power tables,
    FFTs or log-space factors the root search and the queue front use.
    """
    probs = np.asarray(getattr(s_probs, "probs", s_probs), dtype=float)
    z = np.asarray(z, dtype=complex)
    y = np.asarray(y_pgf(z, lam, model), dtype=complex)
    return z ** (len(probs) - 1) / y - np.polyval(probs, z)


def pgf_factorial_moments(pgf, order: int = 3, radius: float = 0.1,
                          points: int = 128) -> list[float]:
    """First ``order`` factorial moments of a PGF from samples near z=1.

    Differences the PGF over a small circle of sample points around z=1
    (trapezoidal Fourier differentiation): the k-th derivative is
    k! * mean_j G(1 + r e^{i t_j}) e^{-i k t_j} / r^k, with aliasing error
    O(r^points) — spectrally exact for entire PGFs.
    """
    t = np.arange(points) * (TWO_PI / points)
    ring = np.asarray([pgf(1.0 + radius * np.exp(1j * ti)) for ti in t],
                      dtype=complex)
    return [float((np.mean(ring * np.exp(-1j * k * t)) / radius**k).real
                  * math.factorial(k))
            for k in range(1, order + 1)]


def dist_moments(d) -> tuple[float, float, float]:
    """(mean, 2nd central, 3rd central) of a pmf by direct summation."""
    p = np.asarray(getattr(d, "probs", d), dtype=float)
    k = np.arange(len(p))
    mean = float(k @ p)
    dev = k - mean
    return mean, float((dev**2) @ p), float((dev**3) @ p)


def factorial_to_central(fm: list[float]) -> tuple[float, float, float]:
    """(mean, variance, third central moment) from factorial moments."""
    m1 = fm[0]
    raw2 = fm[1] + m1
    raw3 = fm[2] + 3.0 * raw2 - 2.0 * m1
    var = raw2 - m1 * m1
    c3 = raw3 - 3.0 * m1 * raw2 + 2.0 * m1**3
    return m1, var, c3


# ---------------------------------------------------------------------------
# Station-to-station transition matrices


def alight_loop(v: np.ndarray, alpha: float) -> np.ndarray:
    """Binomial thinning by Horner's rule, each step written out on slices:
    the loop ``solver.alight`` runs in place, which must match it bit for bit."""
    acc = np.zeros(len(v))
    for vi in v[::-1]:
        acc[1:] = alpha * acc[1:] + (1.0 - alpha) * acc[:-1]
        acc[0] = alpha * acc[0] + vi
    return acc


def alighting_matrix(alpha: float, capacity: int) -> np.ndarray:
    """Row-stochastic load-thinning matrix: entry (i, j) = P(j of i stay onboard).

    Row i is the Binomial(i, 1 - alpha) pmf, built row by row from
    P_i(j) = alpha * P_{i-1}(j) + (1 - alpha) * P_{i-1}(j - 1).  A load pmf
    times this matrix is what ``solver.alight`` computes without it.
    """
    mat = np.zeros((capacity + 1, capacity + 1))
    mat[0, 0] = 1.0
    for i in range(1, capacity + 1):
        mat[i, :i] = alpha * mat[i - 1, :i]
        mat[i, 1:i + 1] += (1.0 - alpha) * mat[i - 1, :i]
    return mat


def boarding_matrix(q: np.ndarray, capacity: int) -> np.ndarray:
    """Row-stochastic load-refill matrix from the queue front q_0..q_{C-1}.

    From load i the vehicle leaves with j < C when exactly j - i riders were
    queued and full when at least C - i were, that tail clamped at zero.  A
    load pmf times this matrix is what ``solver.board`` computes without it.
    """
    mat = np.zeros((capacity + 1, capacity + 1))
    for i in range(capacity):
        take = capacity - i
        mat[i, i:capacity] = q[:take]
        mat[i, capacity] = max(0.0, 1.0 - q[:take].sum())
    mat[capacity, capacity] = 1.0
    return mat


# ---------------------------------------------------------------------------
# Brute-force steady state


# the mass the dense chain may leave in the last 10% of its states, and the
# most states it may grow to: its matrix and the solver's copy of it take
# 2 * 8 * (K + 1)^2 bytes, 144 MB at 3000
MARKOV_TAIL = 1e-14
MARKOV_MAX_STATES = 3000


def markov_tail(pi: np.ndarray) -> float:
    """The mass of ``pi`` in the last 10% of its states."""
    return float(pi[int(0.9 * len(pi)):].sum())


def markov_queue_stationary(s_probs: np.ndarray, lam: float, model: HeadwayModel,
                            truncate_at: int | None = None) -> np.ndarray:
    """Stationary law of Q' = max(Q - S, 0) + Y on states 0..K by direct solve.

    Builds the dense transition matrix from the space pmf and the
    FFT-inverted arrival pmf, then solves the balance equations.  Pure brute
    force: no roots, no generating functions.  ``truncate_at`` fixes K;
    otherwise K starts at C + len(pmf) + 40/max(1 - load, 0.02) and grows
    by half until ``markov_tail`` falls below ``MARKOV_TAIL``, which is
    asserted within ``MARKOV_MAX_STATES`` states.
    """
    s_probs = np.asarray(s_probs, dtype=float)
    cap = len(s_probs) - 1
    pmf = _drop_noise_tail(arrival_pmf(lam, model))
    pmf = pmf / pmf.sum()
    if truncate_at is not None:
        return _markov_solve(s_probs, pmf, truncate_at)
    load = float(pmf @ np.arange(len(pmf))) / float(s_probs @ np.arange(cap + 1))
    k = min(int(cap + len(pmf) + 40.0 / max(1.0 - load, 0.02)), MARKOV_MAX_STATES)
    while True:
        pi = _markov_solve(s_probs, pmf, k)
        tail = markov_tail(pi)
        if tail < MARKOV_TAIL:
            return pi
        assert k < MARKOV_MAX_STATES, f"{tail:.2e} of the mass in the last 10% of {k + 1} states"
        k = min(k + k // 2, MARKOV_MAX_STATES)


def _markov_solve(s_probs: np.ndarray, pmf: np.ndarray, k: int) -> np.ndarray:
    """The chain's stationary law on states 0..k, each row's mass past k
    spread back over the row."""
    cap = len(s_probs) - 1
    trans = np.zeros((k + 1, k + 1))
    # from q >= C the queue drops by s w.p. s_probs[s], then Y arrive: one
    # convolution, shifted along the row by q - C
    row = np.convolve(s_probs[::-1], pmf)
    padded = np.concatenate((np.zeros(max(k - cap, 0)), row, np.zeros(k + 1)))
    trans[cap:] = np.lib.stride_tricks.sliding_window_view(padded, k + 1)[
        k - np.arange(cap, k + 1)]
    # below C any space s >= q empties the queue
    for q in range(min(cap, k + 1)):
        row = np.convolve(np.r_[s_probs[q:].sum(), s_probs[:q][::-1]], pmf)[:k + 1]
        trans[q, :len(row)] = row
    trans /= trans.sum(axis=1, keepdims=True)  # reabsorb truncated tail mass
    a = trans.T  # a view: the balance equations pi (P - I) = 0, one replaced by sum(pi) = 1
    a[np.diag_indices(k + 1)] -= 1.0
    a[-1, :] = 1.0
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi = np.clip(np.linalg.solve(a, b), 0.0, None)
    return pi / pi.sum()


def pmf_mean_var(pmf: np.ndarray) -> tuple[float, float]:
    ks = np.arange(len(pmf))
    mean = float(pmf @ ks)
    return mean, float(pmf @ (ks - mean) ** 2)


def fixed_capacity_front(capacity: int, lam: float, model: HeadwayModel) -> np.ndarray:
    """Closed-form q_0..q_{C-1} for the deterministic-capacity special case.

    With the whole vehicle available every visit, q_0 is (C - E[Y]) times the
    product of z_i/(z_i - 1) over the C-1 interior characteristic roots, and
    q_j = q_0 * eta_j with eta the coefficients of prod_i (1 - z/z_i) taken
    over all C in-disk roots including z = 1.  Roots come from the companion
    matrix, not the production search.
    """
    s_probs = np.zeros(capacity + 1)
    s_probs[capacity] = 1.0
    roots = poly_roots_in_disk(s_probs, lam, model, capacity)
    if len(roots) != capacity:
        raise AssertionError(f"oracle expected {capacity} in-disk roots, got {len(roots)}")
    unit = np.argmin(np.abs(roots - 1.0))
    inner = np.delete(roots, unit)
    pmf = arrival_pmf(lam, model)
    ybar = float(pmf @ np.arange(len(pmf)))
    q0 = (capacity - ybar) * complex(np.prod(inner / (inner - 1.0)))
    eta = np.array([1.0 + 0.0j])
    for zi in np.r_[1.0 + 0.0j, inner]:
        eta = np.convolve(eta, [1.0, -1.0 / zi])
    return (q0 * eta[:capacity]).real


# ---------------------------------------------------------------------------
# The root path: the queue front and moments from the certified root set,
# the paper's closed forms and the production solve before the factorization


def inner_roots(roots) -> np.ndarray:
    """All roots of a set except the unit root z=1, as a complex array."""
    arr = np.asarray(roots, dtype=complex)
    return arr[np.abs(arr - 1.0) > 1e-9]


def _real_checked(value: complex, what: str, tol: float = 1e-8) -> float:
    if abs(value.imag) > tol:
        raise SolverError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


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
    via the FFT, with Den(z) = z^C / Y(z) - P(z); where Y(z) = 0 on the
    circle it raises SolverError.  The root product is accumulated one root
    at a time, and P on the circle is one real FFT of its scaled
    coefficients, so no (points x roots) array is built and the cost stays
    O(N C) at any capacity.  Unlike matching polynomial
    coefficients, whose triangular solve divides by s_C, this stays accurate
    when s_C is tiny.  Q has real coefficients and the validated inner roots
    are closed under conjugation, so Q(conj z) = conj Q(z): the samples on
    the lower half circle mirror the upper ones, and only the N/2 + 1 points
    with angle in [0, pi] are evaluated and inverted by ``np.fft.hfft``.
    """
    cap = s.top_index
    s_mean = dist_moments(s)[0]
    if s_mean <= y.mean:
        raise SolverError(
            f"mean free space {s_mean:.6g} does not exceed mean arrivals {y.mean:.6g}")
    inner = inner_roots(roots)
    if len(inner) != cap - 1:
        raise ValueError(f"expected {cap - 1} non-unit roots, got {len(inner)}")
    scale = (s_mean - y.mean) / _real_checked(np.prod(1.0 - inner), "root product normalizer")

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
        y_vals = np.asarray(y_pgf_handle(z), dtype=complex)
        if np.any(y_vals == 0):  # Y underflows at hundreds of arrivals a headway
            raise SolverError("Y(z) = 0 at a denominator evaluation point")
        # hfft(x, N) is the (real) forward FFT of the Hermitian extension of x
        coef = np.fft.hfft(num / (z**cap / y_vals - space_poly), n_points) / n_points
        q = coef[:cap] / radius ** np.arange(cap)
    return QueueFront(_front_diagnostics(q, s, s_mean, y.mean))


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
    sum1 = _real_checked(np.sum(1.0 / (1.0 - inner)), "first root sum")
    sum2 = _real_checked(np.sum(inner / (1.0 - inner) ** 2), "second root sum")
    eq = (s_c2 + y_c2 + drift * (1.0 + 2.0 * (s_mean - cap)) - drift**2) / (2.0 * drift) + sum1
    varq = (-4.0 * (s_c3 - y_c3) * drift + 3.0 * (s_c2 + y_c2) ** 2
            - (6.0 * (s_c2 - y_c2) - 1.0) * drift**2 - drift**4) / (12.0 * drift**2) - sum2
    return eq, varq


def full_circle_front(s, roots, y, y_pgf_handle) -> np.ndarray:
    """Raw q_0..q_{C-1} from the queue PGF sampled on the whole contour circle.

    The same root-factored Q(z) and circle as ``queue_front_contour``,
    but every one of the N points is evaluated and inverted by a full complex
    FFT, so nothing rests on the conjugate symmetry of the samples.
    """
    probs = s.probs
    cap = len(probs) - 1
    inner = inner_roots(roots)
    scale = (dist_moments(s)[0] - y.mean) / complex(np.prod(1.0 - inner)).real
    radius, n_points = contour_size(cap)
    z = radius * np.exp(1j * TWO_PI * np.arange(n_points) / n_points)
    num = scale * (z - 1.0) * np.prod(z[:, None] - inner[None, :], axis=1)
    den = z**cap / np.asarray(y_pgf_handle(z), dtype=complex) - np.polyval(probs, z)
    coef = np.fft.fft(num / den) / n_points
    return (coef[:cap] / radius ** np.arange(cap)).real


def queue_front(s: DiscreteDist, roots: tuple[complex, ...], y: ArrivalMoments) -> QueueFront:
    """Solve q_0..q_{C-1} by matching polynomial coefficients.

    q_0 comes from the product over non-unit roots; the remaining entries
    follow from the triangular Toeplitz system with the coefficients of
    prod_i (1 - z/z_i).  Exact while s_C is healthy; for tiny s_C the
    triangle is ill-conditioned (error grows like eps/s_C), so a numerically
    zero s_C raises ValueError.  ``queue_front_contour`` reads the same
    front off the contour; this is the independent reference, and it runs
    the production diagnostics, so a front that fails them raises
    ``SolverError``.
    """
    probs = s.probs
    cap = len(probs) - 1
    s_top = float(probs[cap])
    if s_top <= S_TOP_FLOOR:
        raise ValueError(f"s_C = {s_top:.3e} is numerically zero; reduce the capacity")
    s_mean = dist_moments(s)[0]
    if s_mean <= y.mean:
        raise SolverError(
            f"mean free space {s_mean:.6g} does not exceed mean arrivals {y.mean:.6g}")
    inner = inner_roots(roots)
    if len(inner) != cap - 1:
        raise ValueError(f"expected {cap - 1} non-unit roots, got {len(inner)}")

    q0 = (s_mean - y.mean) / s_top * _real_checked(
        complex(np.prod(inner / (inner - 1.0))) if len(inner) else 1.0 + 0j,
        "root product for q_0")
    coeffs = np.array([1.0 + 0.0j])
    for zi in np.concatenate([[1.0 + 0.0j], inner]):
        coeffs = np.convolve(coeffs, np.array([1.0, -1.0 / zi]))
    if np.max(np.abs(coeffs.imag)) > 1e-8:
        raise SolverError(
            f"numerator coefficients have imaginary residue {np.max(np.abs(coeffs.imag)):.3e}")
    scaled = s_top * q0 * coeffs.real[:cap]

    q = np.zeros(cap)
    for j in range(cap):
        q[j] = (scaled[j] - (q[:j] @ probs[cap - j:cap] if j else 0.0)) / s_top
    return QueueFront(_front_diagnostics(q, s, s_mean, y.mean))


def queue_moments_raw(s_raw: tuple[float, float, float], y_raw: tuple[float, float, float],
                      roots: tuple[complex, ...]) -> tuple[float, float]:
    """``queue_moments`` written in raw (non-central) moments.

    Algebraically identical to the production form; kept as an independent
    transcription so a typo in either version shows up as a disagreement.
    """
    sb, s2, s3 = s_raw
    yb, y2, y3 = y_raw
    d = sb - yb
    if d <= 0:
        return UNBOUNDED, UNBOUNDED
    cap = len(roots)
    inner = inner_roots(roots)
    sum1 = _real_checked(complex(np.sum(1.0 / (1.0 - inner))) if len(inner) else 0j,
                         "first root sum")
    sum2 = _real_checked(complex(np.sum(inner / (1.0 - inner) ** 2)) if len(inner) else 0j,
                         "second root sum")
    eq = (-2.0 * cap * sb + 2.0 * cap * yb + s2 + sb + y2 - 2.0 * yb**2 - yb) / (2.0 * d) + sum1
    var_num = (3.0 * s2**2 + 6.0 * s2 * y2 - 12.0 * s2 * yb**2 - 4.0 * s3 * sb + 4.0 * s3 * yb
               + sb**2 - 24.0 * sb * y2 * yb + 4.0 * sb * y3 + 24.0 * sb * yb**3
               - 2.0 * sb * yb + 3.0 * y2**2 + 12.0 * y2 * yb**2 - 4.0 * y3 * yb
               - 12.0 * yb**4 + yb**2)
    return eq, var_num / (12.0 * d * d) - sum2


def headway_mgf(t: float, scenario: Scenario, n: int) -> float:
    """Moment generating function of the exact (not rectified) headway at station n.

    Valid for |t| < theta.
    """
    theta = scenario.incidents.duration_rate
    gamma = scenario.incidents.rate
    if abs(t) >= theta:
        raise ValueError(f"headway MGF undefined for |t| >= theta ({t} vs {theta})")
    t_n = travel_time_to(scenario.route, n)
    base = math.exp(t * adjusted_headway(scenario))
    return base * math.exp(gamma * t_n * 2.0 * t * t / (theta * theta - t * t))


# ---------------------------------------------------------------------------
# Monte Carlo


def sample_compound_delay(rng: np.random.Generator, gamma: float, theta: float,
                          travel_time: float, size: int) -> np.ndarray:
    """Total suspension delay over a trip: Poisson(gamma T) many Exp(theta) draws."""
    counts = rng.poisson(gamma * travel_time, size=size)
    out = np.zeros(size)
    busy = counts > 0
    out[busy] = rng.gamma(counts[busy]) / theta
    return out


def sample_exact_headways(rng: np.random.Generator, mean_headway: float,
                          gamma: float, theta: float, travel_time: float,
                          size: int) -> np.ndarray:
    """Draws of (adjusted headway) + delay - delay' from the exact law."""
    own = sample_compound_delay(rng, gamma, theta, travel_time, size)
    prev = sample_compound_delay(rng, gamma, theta, travel_time, size)
    return mean_headway + own - prev


def sample_arrival_counts(rng: np.random.Generator, lam: float,
                          model: HeadwayModel, size: int) -> np.ndarray:
    """Mixed-Poisson draws of the per-headway arrival count."""
    if model.sigma == 0.0:
        h = np.full(size, model.mu)
    else:
        h = np.maximum(rng.normal(model.mu, model.sigma, size=size), 0.0)
    return rng.poisson(lam * h)


def ratio_se_split(row_sums: np.ndarray, row_counts: np.ndarray, batches: int = 100) -> float:
    """Batch-means standard error of sum(row_sums) / sum(row_counts), one
    ``np.array_split`` batch at a time; batches without counts are skipped."""
    n_batches = min(batches, len(row_sums))
    sums = np.array_split(row_sums, n_batches)
    counts = np.array_split(row_counts, n_batches)
    means = [s.sum() / c.sum() for s, c in zip(sums, counts) if c.sum() > 0]
    if len(means) < 2:
        return math.nan
    return float(np.std(means, ddof=1) / math.sqrt(len(means)))


def batch_moment_se(samples: np.ndarray, stat, batches: int = 100) -> tuple[float, float]:
    """(estimate, standard error) of ``stat`` over equal sample batches."""
    n = len(samples) // batches * batches
    chunks = samples[:n].reshape(batches, -1)
    vals = np.array([stat(c) for c in chunks])
    return float(stat(samples)), float(vals.std(ddof=1) / math.sqrt(batches))


# ---------------------------------------------------------------------------
# Simulator queue pass, one vehicle at a time


def fifo_queue_loop(k: np.ndarray, stay: np.ndarray, capacity: int,
                    arrivals: np.ndarray, depart: np.ndarray):
    """Per-vehicle FIFO bulk-service pass of one station, head/tail pointers.

    Vehicle j finds the ``k[j]`` new arrivals behind whoever was left, boards
    up to ``capacity - stay[j]`` of them in arrival order, and leaves the
    rest.  Returns (q_seen, board, left, w_sum, w_sq): the queue found, the
    boardings, the queue left behind, and the per-vehicle sum and sum of
    squares of the boarders' waits ``depart[j] - arrivals[i]``.
    """
    runs = len(k)
    q_seen = np.zeros(runs, dtype=np.int64)
    board = np.zeros(runs, dtype=np.int64)
    left = np.zeros(runs, dtype=np.int64)
    w_sum = np.zeros(runs)
    w_sq = np.zeros(runs)
    head = tail = 0
    for j in range(runs):
        tail += int(k[j])
        q_len = tail - head
        q_seen[j] = q_len
        b = min(capacity - int(stay[j]), q_len)
        if b > 0:
            w = depart[j] - arrivals[head:head + b]
            w_sum[j] = w.sum()
            w_sq[j] = w @ w
            head += b
            board[j] = b
        left[j] = tail - head
    return q_seen, board, left, w_sum, w_sq
