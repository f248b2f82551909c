"""Locate all in-disk zeros of the queue PGF denominator.

The denominator Den(z) = z^C / Y(z) - P(z), with P(z) = sum_u s_u z^{C-u},
has exactly C zeros in the closed unit disk for a stable station, z = 1
among them.  ``find_all_roots`` seeds complex Newton on Den from the
fixed-point iteration z <- w (P(z) Y(z))^{1/C}, one start on each ray
w = e^{i pi k / C}, k = 1..C, of the upper half-plane; it merges conjugates
and duplicates, and accepts a set only once ``validate_root_set`` passes.

One seed set is drawn (``SEED_PASSES`` fixed-point passes) and at most two
attempts run, until one certifies: Newton (at most ``NEWTON_STEPS`` steps)
from every seed into a fresh pool; then, for starts that keep landing on
roots already found, the same seeds again, with Newton deflated against
that pool and the new roots merged into it.  Every function here reads C
off the space pmf s_0..s_C it is given (C = len(probs) - 1); none takes the
capacity separately.

No stage of ``solver.analyze_route`` needs these roots: it solves each
station by factorization.  The search runs when a station's root set is
first read (``solver.PendingRoots``), as ``transitq roots`` and the
acceptance census do.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Fixed-point passes that draw the seeds, and Newton steps a start may take
# before it is dropped as not converged.
SEED_PASSES, NEWTON_STEPS = 12, 40


class SolverError(RuntimeError):
    """A numeric failure: no certified root set, no factorization circle that
    passes its checks, a queue front or moments that fail theirs, or a
    station with no stationary regime.  Its subtype
    ``solver.StationSolveError`` adds the station and the stage."""


def _ordered(roots: np.ndarray) -> tuple[complex, ...]:
    """z=1 first, remaining roots by ascending polar angle in [0, 2*pi)."""
    unit = np.abs(roots - 1.0) <= 1e-9
    rest = roots[~unit]
    rest = rest[np.argsort(np.angle(rest) % (2.0 * np.pi), kind="stable")]
    return tuple(np.concatenate([roots[unit], rest]).tolist())


def root_residuals(roots: Sequence[complex], s_probs,
                   y_pgf_handle) -> tuple[np.ndarray, np.ndarray]:
    """(|J(z) - 1|, |Den(z)|) at each root, from one evaluation of P and Y.

    J(z) = Y(z) sum_u s_u z^{-u}, its z^{-C} factor taken in log space so J
    stays finite at every capacity and radius; Den(z) = z^C / Y(z) - P(z).
    A residual that overflows or is undefined comes back as inf or NaN.
    """
    probs = np.asarray(s_probs, dtype=float)
    capacity = len(probs) - 1
    arr = np.asarray(roots, dtype=complex)
    y_vals = np.asarray(y_pgf_handle(arr), dtype=complex)
    space_poly = _space_poly(probs, arr)[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        j_resid = np.abs(y_vals * np.exp(np.log(space_poly) - capacity * np.log(arr)) - 1.0)
        den_resid = np.abs(arr**capacity / y_vals - space_poly)
    return j_resid, den_resid


def validate_root_set(roots: Sequence[complex], s_probs, y_pgf_handle) -> list[str]:
    """Every way ``roots`` falls short of Den's C in-disk zeros; empty when sound.

    C is the last index of the space pmf ``s_probs``.  The set must hold
    exactly C roots, z = 1 among them, all in the closed unit disk, distinct
    and closed under conjugation.  Both residuals of ``root_residuals``,
    |J(z) - 1| and |Den(z)|, must fall below 1e-8 at every root; one that is
    not finite fails its gate.
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
    j_resid, den_resid = map(np.max, root_residuals(arr, probs, y_pgf_handle))
    if not j_resid < 1e-8:
        problems.append(f"max |J(z)-1| residual {j_resid:.3e} >= 1e-8")
    if not den_resid < 1e-8:
        problems.append(f"max |Den(root)| = {den_resid:.3e} exceeds 1e-8")
    return problems


def _space_poly(probs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(z) = sum_u s_u z^{C-u} and P'(z) from one table of powers of z.

    The one evaluator of P for the search and its certificate.  For the few
    dozen points evaluated at once, two matrix products beat Horner's
    C + 1 Python-level passes (``np.polyval``): on a 2-core x86-64 host they
    cut ``find_all_roots`` on a tenth of the criterion-4 solves from 4.4 to
    2.4 ms per solve (medians of 4 alternating pairs).
    """
    cap = len(probs) - 1
    powers = np.cumprod(np.broadcast_to(z[:, None], (len(z), cap)), axis=1)  # z^1..z^C
    coef = probs[-2::-1]  # coefficients of z^1..z^C
    value = probs[-1] + powers @ coef
    slope = coef[0] + powers[:, :-1] @ (np.arange(2, cap + 1) * coef[1:])
    return value, slope


def fixed_point_seeds(probs: np.ndarray, y_pgf_handle) -> np.ndarray:
    """Iterate z <- w (P(z) Y(z))^{1/C} from z = 0 on the rays w = e^{i pi k / C}.

    Every root satisfies z^C = P(z) Y(z), so z = w (P Y)^{1/C} for some C-th
    root of unity w (Janssen & van Leeuwaarden, Queueing Systems 50, 2005).
    With the principal C-th root, the start on w = e^{2 pi i k / C} reaches
    the roots whose arg(P Y) lies away from pi; a root with arg(P Y) near pi
    sits on that branch cut, between two such rays.  So the rays at the odd
    multiples of pi / C run as well, with the cut moved to arg(P Y) = 0 by
    taking the root of -P Y (then w^C = -1).  Rays k pi / C, k = 1..C, cover
    the closed upper half-plane.  The iterates only seed Newton, so the
    iteration stops once no point moves by 1e-6, or after ``SEED_PASSES``
    passes.
    """
    capacity = len(probs) - 1
    steps = np.arange(1, capacity + 1)
    omega = np.exp(1j * np.pi * steps / capacity)
    turn = np.where(steps % 2, -1.0, 1.0)  # omega^C
    z = np.zeros(len(omega), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(SEED_PASSES):
            w = _space_poly(probs, z)[0] * np.asarray(y_pgf_handle(z), dtype=complex)
            z_new = omega * np.exp(np.log(turn * w) / capacity)
            z_new[~np.isfinite(z_new)] = 0.0
            done = np.max(np.abs(z_new - z)) < 1e-6
            z = z_new
            if done:
                break
    return z


def newton_polish(z, probs: np.ndarray, y_pgf_handle, known=()) -> np.ndarray:
    """Complex Newton on Den(z) = z^C / Y(z) - P(z) from every start at once.

    Y' is central-differenced (step 1e-6, one batched Y call per step); its
    error only slows the final convergence, which ends once a step falls to
    1e-15 or stops shrinking at the rounding floor.  Starts whose step turns
    non-finite, or that have not converged after ``NEWTON_STEPS`` steps, come
    back as NaN.  Given ``known`` roots, Newton runs on Den(z) / prod(z - z_k)
    without forming it, with the step Den / (Den' - Den sum 1/(z - z_k))
    (Maehly's implicit deflation, Z. Angew. Math. Phys. 5, 1954), so that
    no start can converge to a known root.
    """
    capacity = len(probs) - 1
    z = np.array(z, dtype=complex)
    known = np.asarray(known, dtype=complex)
    h = 1e-6
    last = np.full(len(z), np.inf)
    active = np.arange(len(z))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(NEWTON_STEPS):
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
            if len(known):
                slope = slope - den * np.sum(1.0 / (za[:, None] - known), axis=1)
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
    """All C in-disk roots of Den, from the first attempt that certifies.

    ``s_probs`` is the available-space pmf (index 0..C, so it fixes C, which
    must be at least 1); ``y_pgf_handle`` must accept complex ndarray
    arguments; ``rho`` is the station's utilization, which must lie in [0, 1)
    for the C roots to exist.  A pmf or ``rho`` out of range raises ValueError.
    The pool of the first attempt (see the module docstring) that passes
    ``validate_root_set`` is returned, z = 1 first and the rest by ascending
    polar angle; SolverError, whose message lists the last attempt's
    problems, is raised when neither attempt passes.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"find_all_roots needs 0 <= rho < 1, got {rho}")
    probs = np.asarray(s_probs, dtype=float)
    if probs.ndim != 1 or len(probs) < 2:
        raise ValueError(f"find_all_roots needs a space pmf s_0..s_C with C >= 1, "
                         f"got shape {probs.shape}")

    seeds = _upper(fixed_point_seeds(probs, y_pgf_handle))
    pool = np.array([1.0 + 0j])
    for deflate in (False, True):
        polished = newton_polish(seeds, probs, y_pgf_handle, pool if deflate else ())
        pool = _merge(np.concatenate([pool, polished]))
        roots = _ordered(np.concatenate([pool, pool[pool.imag > 0.0].conj()]))
        problems = validate_root_set(roots, probs, y_pgf_handle)
        if not problems:
            return roots
    raise SolverError("root set validation failed: " + "; ".join(problems))
