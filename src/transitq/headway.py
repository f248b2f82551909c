"""Incident-delay and headway distribution mathematics.

The vehicle headway at a station is nominal dispatch headway plus the
difference of two independent compound Poisson-exponential delays (this
vehicle's suspensions minus the previous vehicle's).  That law has no
closed-form density, so the pipeline works with a zero-inflated rectified
normal surrogate matched to its mean and variance, and everything downstream
(arrival-count PGF, moments) is derived from that surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Scenario, adjusted_headway, travel_time_to

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def ndtr(x: float) -> float:
    """Standard normal CDF Phi(x)."""
    return 0.5 * math.erfc(-x / _SQRT2)


# Weideman's rational approximation of the Faddeeva function (J.A.C. Weideman,
# "Computation of the complex error function", SIAM J. Numer. Anal. 31, 1994),
# written for erfcx(x) = w(ix) on Re x >= 0:
#     erfcx(x) = 2 p(Z) / (L + x)^2 + 1 / (sqrt(pi) (L + x)),  Z = (L - x) / (L + x),
# with L = sqrt(N / sqrt 2) and p of degree N - 1 = 39, whose coefficients are
# the FFT of exp(-t^2) (L^2 + t^2) at the 2N nodes t = L tan(k pi / 2N).
_ERFCX_N = 40
_ERFCX_L = math.sqrt(_ERFCX_N / math.sqrt(2.0))


def _erfcx_blocks() -> np.ndarray:
    """2 a_n, where a_n multiplies Z^n in p, as five rows Z^(8j)..Z^(8j+7)."""
    m = 2 * _ERFCX_N
    t = _ERFCX_L * np.tan(np.arange(1 - m, m) * (math.pi / (2 * m)))
    f = np.r_[0.0, np.exp(-t * t) * (_ERFCX_L**2 + t * t)]
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return 2.0 * a[1:_ERFCX_N + 1].reshape(5, 8)


_ERFCX_BLOCKS = _erfcx_blocks()


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x) for Re x >= 0.

    Weideman's N = 40 rational approximation (see above).  Against mpmath
    its relative error stayed below 1.5e-15 on 12 000 random points of the
    right half-plane with 1e-3 <= |x| <= 1e3 (scipy.special.erfcx: 1.3e-14
    on the same points).  It is not valid for Re x < 0.
    Accepts a scalar or ndarray; returns complex of matching shape.
    """
    x = np.asarray(x, dtype=complex)
    lx = _ERFCX_L + x
    # most calls carry a few dozen points, where numpy's per-call cost
    # outweighs the arithmetic, so p takes few calls: rows Z^0..Z^8, one
    # real 5x8 product, and Horner in Z^8 over the five blocks
    powers = np.empty((9, x.size), dtype=complex)
    powers[0] = 1.0
    powers[1:] = ((_ERFCX_L - x) / lx).ravel()
    np.multiply.accumulate(powers, axis=0, out=powers)
    blocks = (_ERFCX_BLOCKS @ powers[:8].view(float)).view(complex)
    p = blocks[4]
    for j in (3, 2, 1, 0):
        p = p * powers[8] + blocks[j]
    return (p.reshape(x.shape) / lx + _INV_SQRT_PI) / lx


@dataclass(frozen=True, slots=True)
class HeadwayModel:
    """Zero-inflated rectified-normal headway surrogate for one station.

    ``mu``/``sigma`` parameterize the underlying normal; negative draws are
    rectified onto an atom at zero of size ``zero_mass`` = Phi(-mu/sigma).
    ``sigma == 0`` denotes the degenerate no-incident model (point mass at mu).
    """

    mu: float
    sigma: float
    zero_mass: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"headway mean must be positive, got {self.mu}")
        if self.sigma < 0:
            raise ValueError(f"headway sigma must be nonnegative, got {self.sigma}")


@dataclass(frozen=True, slots=True)
class ArrivalMoments:
    """Mean and central moments of the passenger count arriving in one headway."""

    mean: float
    central2: float
    central3: float


def headway_base_moments(scenario: Scenario, n: int) -> tuple[float, float]:
    """(mean, variance) of the exact headway at station n.

    The mean is the incident-adjusted dispatch headway (station independent);
    the variance 4 * T_n * gamma / theta^2 grows linearly with distance from
    the hub because both neighbouring delays accumulate over T_n.
    """
    gamma = scenario.incidents.rate
    theta = scenario.incidents.duration_rate
    t_n = travel_time_to(scenario.route, n)
    return adjusted_headway(scenario), 4.0 * t_n * gamma / theta**2


def truncated_headway(scenario: Scenario, n: int) -> HeadwayModel:
    """Fit the zero-inflated rectified-normal surrogate at station n."""
    mean, var = headway_base_moments(scenario, n)
    sigma = math.sqrt(var)
    if sigma == 0.0:
        return HeadwayModel(mu=mean, sigma=0.0, zero_mass=0.0)
    return HeadwayModel(mu=mean, sigma=sigma, zero_mass=ndtr(-mean / sigma))


def truncated_headway_moments(model: HeadwayModel) -> tuple[float, float, float]:
    """(mean, variance, third central moment) of max(0, N(mu, sigma^2)).

    Closed-form rectified-Gaussian raw moments:
        E[X]   = mu Phi(m) + sigma phi(m)
        E[X^2] = (mu^2 + sigma^2) Phi(m) + mu sigma phi(m)
        E[X^3] = (mu^3 + 3 mu sigma^2) Phi(m) + (mu^2 sigma + 2 sigma^3) phi(m)
    with m = mu/sigma.  The mean is evaluated as
    mu + sigma max(0, phi(m) - m Phi(-m)): the correction term is
    non-negative, and written this way roundoff cannot put the mean below mu.
    """
    mu, sigma = model.mu, model.sigma
    if sigma == 0.0:
        return mu, 0.0, 0.0
    m = mu / sigma
    big_phi = ndtr(m)
    small_phi = math.exp(-0.5 * m * m) * _INV_SQRT_2PI
    raw1 = mu + sigma * max(0.0, small_phi - m * ndtr(-m))
    raw2 = (mu * mu + sigma * sigma) * big_phi + mu * sigma * small_phi
    raw3 = (mu**3 + 3.0 * mu * sigma**2) * big_phi + (mu * mu * sigma + 2.0 * sigma**3) * small_phi
    var = raw2 - raw1 * raw1
    central3 = raw3 - 3.0 * raw1 * raw2 + 2.0 * raw1**3
    return raw1, var, central3


def y_pgf(z, lam: float, model: HeadwayModel):
    """PGF of the arrivals-per-headway count at complex argument(s) z.

    Mixing Poisson(lam * H) over the rectified-normal H gives

        zero_mass + exp(mu lam (z-1) + sigma^2 lam^2 (z-1)^2 / 2)
                    * (1 - Phi(-mu/sigma - sigma lam (z-1)))

    with Phi evaluated at complex argument.  Direct evaluation overflows on
    parts of the unit disk, so this uses the scaled complement ``erfcx`` (the
    Weideman kernel above) with the exact cancellation  exponent - w^2/2 =
    -m^2/2  (w = -m - sigma lam (z-1)), calling it once on w reflected into
    Re w >= 0.  Against 50-digit mpmath on the closed unit disk, over the
    reference line's stations and five stressed (mu, sigma, lam), the
    absolute error stayed below 4e-16 (relative 1e-14 where |Y| is small).

    A real float z >= 1 takes the closed form in ``math`` and returns a float:
    every term is positive there, so nothing cancels, and an overflow is inf.

    Accepts a scalar or ndarray z; returns matching shape.
    """
    if lam < 0:
        raise ValueError(f"arrival rate must be >= 0, got {lam}")
    if isinstance(z, float) and 1.0 <= z < math.inf:
        try:
            if model.sigma <= 1e-12 * model.mu:
                return math.exp(lam * model.mu * (z - 1.0))
            m, u = model.mu / model.sigma, model.sigma * lam * (z - 1.0)
            return model.zero_mass + math.exp(m * u + 0.5 * u * u) * ndtr(m + u)
        except OverflowError:
            return math.inf
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("y_pgf: non-finite argument")
    scalar = arr.ndim == 0
    zz = np.atleast_1d(arr)

    if model.sigma <= 1e-12 * model.mu:
        # effectively deterministic headway: the sigma corrections are below
        # double precision and mu/sigma would overflow, so use the Poisson form
        out = np.exp(lam * model.mu * (zz - 1.0))
    else:
        m = model.mu / model.sigma
        u = model.sigma * lam * (zz - 1.0)
        w = -m - u
        neg = w.real < 0.0
        # one kernel call on w reflected into Re >= 0; where Re w < 0 the
        # reflection erfcx(-v) = 2 exp(v^2) - erfcx(v) restores the value
        out = (0.5 * math.exp(-0.5 * m * m)) * erfcx(np.where(neg, m + u, w) / _SQRT2)
        if neg.any():
            un = u[neg]
            out[neg] = np.exp(m * un + 0.5 * un * un) - out[neg]
        out += model.zero_mass
    if scalar:
        return complex(out[0])
    return out.reshape(arr.shape)


def y_moments(lam: float, model: HeadwayModel) -> ArrivalMoments:
    """Exact moments of the arrival count via mixed-Poisson cumulants.

    With L = lam * H, the count's cumulants are k1 = E[L],
    k2 = E[L] + Var[L], k3 = E[L] + 3 Var[L] + k3[L]; no PGF
    differentiation needed.
    """
    if lam < 0:
        raise ValueError(f"arrival rate must be >= 0, got {lam}")
    h_mean, h_var, h_c3 = truncated_headway_moments(model)
    mix_mean = lam * h_mean
    mix_var = lam * lam * h_var
    mix_c3 = lam**3 * h_c3
    return ArrivalMoments(
        mean=mix_mean,
        central2=mix_mean + mix_var,
        central3=mix_mean + 3.0 * mix_var + mix_c3,
    )
