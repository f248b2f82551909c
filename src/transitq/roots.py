"""Locate all in-disk zeros of the queue PGF denominator.

The denominator Den(z) = z^C / Y(z) - P(z), with P(z) = sum_u s_u z^{C-u},
has exactly C zeros in the closed unit disk for a stable station, z = 1
among them.  ``find_all_roots`` gathers candidates from two seed sources,
polishes every candidate with complex Newton on Den, merges conjugates and
duplicates, and accepts a set only once ``validate_root_set`` passes:

1. the fixed-point iteration z <- w (P(z) Y(z))^{1/C}, one start on each
   ray w = e^{i pi k / C}, k = 1..C, of the upper half-plane;
2. the eigenvalues of the truncated polynomial z^C - P(z) Y^(z), where Y^
   is the power series of Y read off an FFT on the unit circle.

Up to three attempts run, cheapest first, until one certifies: source 1
on a small budget (``CHEAP_PASSES`` fixed-point passes, at most
``CHEAP_STEPS`` Newton steps) in a pool of its own; source 1 on the full
budget in a fresh pool; and source 2, merged into that pool.  The last two
are the whole search on their own, so the cheap attempt never costs a
certification.  Every function here reads C off the space pmf s_0..s_C it
is given (C = len(probs) - 1); none takes the capacity separately.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

_TWO_PI = 2.0 * math.pi

# Longest power series of Y that ``eigen_seeds`` turns into a polynomial;
# the criterion-4 grid needs at most 267 terms.
EIGEN_MAX_SERIES = 512

# Fixed-point passes and Newton steps of the cheap attempt and of the full
# one.  On the criterion-4 grid, 9 in 10 cheap starts still moving after six
# Newton steps end, given 40, on a root another start has already found.
CHEAP_PASSES, CHEAP_STEPS = 6, 6
FULL_PASSES, FULL_STEPS = 12, 40


class RootSearchError(RuntimeError):
    """Search terminated without a complete, valid root set."""

    def __init__(self, message: str, found: int = -1, needed: int = -1,
                 roots: Sequence[complex] = ()):
        super().__init__(message)
        self.found = found
        self.needed = needed
        self.roots = tuple(roots)


def inner_roots(roots: Sequence[complex]) -> np.ndarray:
    """All roots of a set except the unit root z=1, as a complex array."""
    arr = np.asarray(roots, dtype=complex)
    return arr[np.abs(arr - 1.0) > 1e-9]


def _ordered(roots: Sequence[complex]) -> tuple[complex, ...]:
    """z=1 first, remaining roots by ascending polar angle in [0, 2*pi)."""
    unit = [z for z in roots if abs(z - 1.0) <= 1e-9]
    rest = [z for z in roots if abs(z - 1.0) > 1e-9]
    rest.sort(key=lambda z: cmath.phase(z) % _TWO_PI)
    return tuple(unit + rest)


def validate_root_set(roots: Sequence[complex], s_probs, y_pgf_handle) -> list[str]:
    """Every way ``roots`` falls short of Den's C in-disk zeros; empty when sound.

    C is the last index of the space pmf ``s_probs``.  The set must hold
    exactly C roots, z = 1 among them, all in the closed unit disk, distinct
    and closed under conjugation.  P and Y are evaluated once at the roots,
    and both residuals must fall below 1e-8 there: |J(z) - 1|, with
    J(z) = Y(z) sum_u s_u z^{-u} and its z^{-C} factor taken in log space so
    J stays finite at every capacity and radius, and |Den(z)| =
    |z^C / Y(z) - P(z)|.  A residual that is not finite fails its gate.
    """
    probs = np.asarray(s_probs, dtype=float)
    capacity = len(probs) - 1
    arr = np.asarray(roots, dtype=complex)
    problems = []
    if len(arr) != capacity:
        problems.append(f"expected {capacity} roots, have {len(arr)}")
    if not len(arr):
        return problems
    if np.min(np.abs(arr - 1.0)) > 1e-9:
        problems.append("unit root z=1 missing")
    if np.any(np.abs(arr) > 1.0 + 1e-8):
        problems.append("root outside the closed unit disk")
    close = np.triu(np.abs(arr[:, None] - arr[None, :]) < 1e-6, k=1)
    for i, k in zip(*np.nonzero(close)):
        problems.append(f"roots {i} and {k} coincide within 1e-6")
    partner_gap = np.min(np.abs(arr.conj()[:, None] - arr[None, :]), axis=1)
    for i in np.flatnonzero((np.abs(arr.imag) > 1e-8) & (partner_gap > 1e-8)):
        problems.append(f"root {i} has no conjugate partner")
    y_vals = np.asarray(y_pgf_handle(arr), dtype=complex)
    space_poly = np.polyval(probs, arr)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        j_resid = np.max(np.abs(
            y_vals * np.exp(np.log(space_poly) - capacity * np.log(arr)) - 1.0))
        den_resid = np.max(np.abs(arr**capacity / y_vals - space_poly))
    if not j_resid < 1e-8:
        problems.append(f"max |J(z)-1| residual {j_resid:.3e} >= 1e-8")
    if not den_resid < 1e-8:
        problems.append(f"max |Den(root)| = {den_resid:.3e} exceeds 1e-8")
    return problems


def _space_poly(probs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(z) = sum_u s_u z^{C-u} and P'(z) from one table of powers of z.

    For the few dozen points the root stages evaluate at once, two matrix
    products beat Horner's C + 1 Python-level passes (``np.polyval``): on a
    2-core x86-64 host they cut ``find_all_roots`` on a tenth of the
    criterion-4 solves from 4.4 to 2.4 ms per solve, and perfbench ``grid``
    ``warm_call_s`` from 0.068 to 0.051 s (medians of 4 alternating pairs).
    """
    cap = len(probs) - 1
    powers = np.cumprod(np.broadcast_to(z[:, None], (len(z), cap)), axis=1)  # z^1..z^C
    coef = probs[-2::-1]  # coefficients of z^1..z^C
    value = probs[-1] + powers @ coef
    slope = coef[0] + powers[:, :-1] @ (np.arange(2, cap + 1) * coef[1:])
    return value, slope


def fixed_point_seeds(probs: np.ndarray, y_pgf_handle, passes: int) -> np.ndarray:
    """Iterate z <- w (P(z) Y(z))^{1/C} from z = 0 on the rays w = e^{i pi k / C}.

    Every root satisfies z^C = P(z) Y(z), so z = w (P Y)^{1/C} for some C-th
    root of unity w (Janssen & van Leeuwaarden, Queueing Systems 50, 2005).
    With the principal C-th root, the start on w = e^{2 pi i k / C} reaches
    the roots whose arg(P Y) lies away from pi; a root with arg(P Y) near pi
    sits on that branch cut, between two such rays.  So the rays at the odd
    multiples of pi / C run as well, with the cut moved to arg(P Y) = 0 by
    taking the root of -P Y (then w^C = -1).  Rays k pi / C, k = 1..C, cover
    the closed upper half-plane.  The iterates only seed Newton, so the
    iteration stops once no point moves by 1e-6, or after ``passes`` passes.
    """
    capacity = len(probs) - 1
    steps = np.arange(1, capacity + 1)
    omega = np.exp(1j * np.pi * steps / capacity)
    turn = np.where(steps % 2, -1.0, 1.0)  # omega^C
    z = np.zeros(len(omega), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(passes):
            w = _space_poly(probs, z)[0] * np.asarray(y_pgf_handle(z), dtype=complex)
            z_new = omega * np.exp(np.log(turn * w) / capacity)
            z_new[~np.isfinite(z_new)] = 0.0
            done = np.max(np.abs(z_new - z)) < 1e-6
            z = z_new
            if done:
                break
    return z


def eigen_seeds(probs: np.ndarray, y_pgf_handle) -> np.ndarray:
    """Zeros of the polynomial z^C - P(z) Y^(z) in |z| <= 1.05.

    Y^ is Y's power series from a 4096-point FFT on the unit circle, cut
    where it sinks into the FFT rounding noise (entries of a few 1e-16
    scatter up to the last bin, and an uncut series would make the
    polynomial thousands of degrees long).  A series that is still above
    the cut past ``EIGEN_MAX_SERIES`` terms yields no seeds: its tail
    aliases in a 4096-point FFT, and ``np.roots`` costs O(degree^3), which
    the cap holds at degree C + EIGEN_MAX_SERIES.  High-degree coefficients
    whose size at |z| = 1.05 is below 1e-17 of the largest are dropped
    before ``np.roots``: a tiny s_0 makes the leading coefficient tiny, and
    left in place it ruins the companion matrix and loses roots crowding
    the unit circle.
    """
    points, radius = 4096, 1.05
    t = np.arange(points) * (2.0 * math.pi / points)
    y_hat = np.fft.fft(np.asarray(y_pgf_handle(np.exp(1j * t)), dtype=complex)).real
    y_hat /= points
    above = np.flatnonzero(np.abs(y_hat) > 1e-14)
    if len(above) and above[-1] >= EIGEN_MAX_SERIES:
        return np.empty(0, dtype=complex)
    y_hat = y_hat[: above[-1] + 1] if len(above) else y_hat[:1]
    coeffs = -np.convolve(probs[::-1], y_hat)  # ascending powers of z
    coeffs[len(probs) - 1] += 1.0
    weight = np.abs(coeffs) * radius ** np.arange(len(coeffs))
    keep = np.flatnonzero(weight >= 1e-17 * weight.max())
    coeffs = coeffs[: keep[-1] + 1]
    try:
        cand = np.roots(coeffs[::-1])
    except np.linalg.LinAlgError:  # eigenvalues did not converge: no seeds
        return np.empty(0, dtype=complex)
    return cand[np.abs(cand) <= radius]


def newton_polish(z, probs: np.ndarray, y_pgf_handle, steps: int) -> np.ndarray:
    """Complex Newton on Den(z) = z^C / Y(z) - P(z) from every start at once.

    Y' is central-differenced (step 1e-6, one batched Y call per step); its
    error only slows the final convergence, which ends once a step falls to
    1e-15 or stops shrinking at the rounding floor.  Starts whose step turns
    non-finite, or that have not converged after ``steps`` steps, come back
    as NaN.
    """
    capacity = len(probs) - 1
    z = np.array(z, dtype=complex)
    h = 1e-6
    last = np.full(len(z), np.inf)
    active = np.arange(len(z))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps):
            if not len(active):
                break
            za = z[active]
            n = len(za)
            y = np.asarray(y_pgf_handle(np.concatenate([za, za + h, za - h])),
                           dtype=complex)
            y0, dy = y[:n], (y[n:2 * n] - y[2 * n:]) / (2.0 * h)
            p_val, p_slope = _space_poly(probs, za)
            zc = za ** (capacity - 1)
            den = za * zc / y0 - p_val
            slope = (capacity * zc - za * zc * dy / y0) / y0 - p_slope
            step = den / slope
            size = np.abs(step)
            bad = ~np.isfinite(size)
            z[active[bad]] = np.nan
            z[active[~bad]] = za[~bad] - step[~bad]
            done = bad | (size <= 1e-15) | ((size < 1e-11) & (size >= 0.5 * last[active]))
            last[active] = size
            active = active[~done]
    z[active] = np.nan
    return z


def _upper(z: np.ndarray) -> np.ndarray:
    """Reflect into the closed upper half-plane; within 1e-7 of the axis is real."""
    z = np.where(z.imag < 0.0, z.conj(), z)
    return np.where(np.abs(z.imag) < 1e-7, z.real + 0j, z)


def _merge(z: np.ndarray) -> np.ndarray:
    """Distinct upper-half representatives of the finite in-disk points.

    Conjugates fold together (``_upper``), points within 1e-7 of z = 1
    become exactly 1, and of points closer than 1e-6 the first stays.
    """
    z = z[np.isfinite(z)]
    z = _upper(z[np.abs(z) <= 1.0 + 1e-8])
    z = np.where(np.abs(z - 1.0) < 1e-7, 1.0 + 0j, z)
    close = np.tril(np.abs(z[:, None] - z[None, :]) < 1e-6, k=-1)
    return z[~close.any(axis=1)]


def find_all_roots(s_probs, y_pgf_handle, rho: float) -> tuple[complex, ...]:
    """All C in-disk roots of Den, from the cheapest attempt that certifies.

    ``s_probs`` is the available-space pmf (index 0..C, so it fixes C);
    ``y_pgf_handle`` must accept complex ndarray arguments; ``rho`` is the
    station's utilization, which must lie in [0, 1) for the C roots to exist.
    The cheap fixed-point attempt, the full one and the companion-matrix
    eigenvalues (see the module docstring) are tried in that order; each
    pools its Newton-polished candidates, and the pool is returned, z = 1
    first and the rest by ascending polar angle, as soon as it passes
    ``validate_root_set``.  Raises RootSearchError when no attempt yields
    such a set.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"find_all_roots needs 0 <= rho < 1, got {rho}")
    probs = np.asarray(s_probs, dtype=float)

    def attempts():
        # (seeds, Newton steps, whether they join the previous attempt's pool)
        yield fixed_point_seeds(probs, y_pgf_handle, CHEAP_PASSES), CHEAP_STEPS, False
        yield fixed_point_seeds(probs, y_pgf_handle, FULL_PASSES), FULL_STEPS, False
        yield eigen_seeds(probs, y_pgf_handle), FULL_STEPS, True

    pool = np.array([1.0 + 0j])
    for seeds, steps, joins in attempts():
        seeds = np.asarray(seeds, dtype=complex)
        seeds = _upper(seeds[np.isfinite(seeds)])
        polished = newton_polish(seeds, probs, y_pgf_handle, steps)
        pool = _merge(np.concatenate([pool if joins else [1.0 + 0j], polished]))
        roots = _ordered(np.concatenate([pool, pool[pool.imag > 0.0].conj()]))
        problems = validate_root_set(roots, probs, y_pgf_handle)
        if not problems:
            return roots
    raise RootSearchError("root set validation failed: " + "; ".join(problems),
                          found=len(roots), needed=len(probs) - 1, roots=roots)
