import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx as scipy_erfcx
from scipy.special import ndtr
from scipy.stats import norm

import oracles
from transitq import headway, model
from transitq.headway import HeadwayModel


def _model(mu, sigma):
    zm = float(ndtr(-mu / sigma)) if sigma > 0 else 0.0
    return HeadwayModel(mu=mu, sigma=sigma, zero_mass=zm)


# ---------------------------------------------------------------------------
# Incident delay


def test_compound_delay_matches_mgf_derivatives(reference):
    # d/dt log MGF at 0 gives the mean; second derivative the variance
    h = 1e-4
    logs = [math.log(oracles.headway_mgf(t, reference, 5)) for t in (-h, 0.0, h)]
    mean_fd = (logs[2] - logs[0]) / (2 * h)
    var_fd = (logs[2] - 2 * logs[1] + logs[0]) / h**2
    mean, var = headway.headway_base_moments(reference, 5)
    assert mean_fd == pytest.approx(mean, rel=1e-6)
    assert var_fd == pytest.approx(var, rel=1e-4)


def test_headway_mgf_domain(reference):
    with pytest.raises(ValueError, match="MGF undefined"):
        oracles.headway_mgf(1.0, reference, 3)  # theta == 1.0


def test_base_moments_grow_with_distance(reference):
    variances = [headway.headway_base_moments(reference, n)[1] for n in range(1, 11)]
    assert all(b > a for a, b in zip(variances, variances[1:]))
    means = {headway.headway_base_moments(reference, n)[0] for n in range(1, 11)}
    assert len(means) == 1  # the mean is station independent


# ---------------------------------------------------------------------------
# Rectified-normal surrogate


def test_truncated_headway_reference_values(reference):
    hm = headway.truncated_headway(reference, 5)
    assert hm.mu == pytest.approx(7.2)
    assert hm.sigma == pytest.approx(2.0 * math.sqrt(25.0 * 0.2) / 1.0)
    assert hm.zero_mass == pytest.approx(float(ndtr(-7.2 / hm.sigma)), abs=1e-15)


def test_truncated_headway_no_incidents(reference):
    calm = dataclasses.replace(
        reference, incidents=model.IncidentParams(rate=0.0, duration_rate=1.0))
    hm = headway.truncated_headway(calm, 7)
    assert hm == HeadwayModel(mu=6.0, sigma=0.0, zero_mass=0.0)
    assert headway.truncated_headway_moments(hm) == (6.0, 0.0, 0.0)


def test_headway_model_rejects_bad_params():
    with pytest.raises(ValueError, match="mean must be positive"):
        HeadwayModel(mu=0.0, sigma=1.0, zero_mass=0.5)
    with pytest.raises(ValueError, match="sigma must be nonnegative"):
        HeadwayModel(mu=1.0, sigma=-1.0, zero_mass=0.0)


@pytest.mark.parametrize("mu,sigma", [(7.2, 4.47), (2.0, 4.0), (5.0, 0.5), (1.0, 10.0)])
def test_rectified_moments_against_quadrature(mu, sigma):
    hm = _model(mu, sigma)
    raw = []
    for k in (1, 2, 3):
        val, err = quad(lambda h, k=k: h**k * norm.pdf(h, mu, sigma),
                        0.0, mu + 40.0 * sigma, limit=200)
        raw.append(val)
        assert err < 1e-6
    mean, var, c3 = headway.truncated_headway_moments(hm)
    assert mean == pytest.approx(raw[0], rel=1e-8)
    assert var == pytest.approx(raw[1] - raw[0] ** 2, rel=1e-8)
    assert c3 == pytest.approx(raw[2] - 3 * raw[0] * raw[1] + 2 * raw[0] ** 3, rel=1e-6)


@given(mu=st.floats(0.5, 12.0), sigma=st.floats(0.0, 12.0))
def test_rectified_moment_properties(mu, sigma):
    hm = _model(mu, sigma)
    mean, var, _ = headway.truncated_headway_moments(hm)
    assert mean >= mu  # rectification moves mass up from negative values
    assert var >= 0.0
    assert 0.0 <= hm.zero_mass < 1.0


# ---------------------------------------------------------------------------
# Arrival-count PGF


def test_y_pgf_degenerate_cases():
    hm = _model(4.0, 2.0)
    assert headway.y_pgf(1.0, 0.0, hm) == pytest.approx(1.0)  # lambda = 0
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 7))
    assert np.allclose(headway.y_pgf(z, 0.0, hm), 1.0)

    det = _model(4.0, 0.0)  # sigma = 0: plain Poisson PGF
    vals = headway.y_pgf(z, 0.7, det)
    assert np.allclose(vals, np.exp(0.7 * 4.0 * (z - 1.0)), atol=1e-14)


def test_y_pgf_rejects_bad_input():
    hm = _model(4.0, 2.0)
    with pytest.raises(ValueError, match="arrival rate"):
        headway.y_pgf(0.5, -1.0, hm)
    with pytest.raises(ValueError, match="non-finite"):
        headway.y_pgf(complex(np.nan, 0.0), 1.0, hm)


def test_y_pgf_shape_handling():
    hm = _model(4.0, 2.0)
    scalar = headway.y_pgf(0.3 + 0.1j, 0.5, hm)
    assert isinstance(scalar, complex)
    grid = np.full((3, 4), 0.3 + 0.1j)
    out = headway.y_pgf(grid, 0.5, hm)
    assert out.shape == (3, 4)
    assert np.allclose(out, scalar)


def test_y_pgf_unit_value_and_disk_bound():
    hm = _model(7.2, 4.47)
    assert headway.y_pgf(1.0, 0.9, hm) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(7)
    z = rng.uniform(0, 1, 300) ** 0.5 * np.exp(2j * np.pi * rng.uniform(0, 1, 300))
    vals = headway.y_pgf(z, 0.9, hm)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)


def test_y_pgf_branch_seam_is_continuous():
    # walk z across the erfcx reflection boundary Re(w) = 0 and require
    # smooth values; a branch bug would show as a jump
    hm = _model(7.2, 4.47)
    lam = 2.4
    re_w = lambda x: -hm.mu / hm.sigma - hm.sigma * lam * (x - 1.0)
    x_star = 1.0 - hm.mu / (hm.sigma**2 * lam)  # real z where Re(w) crosses 0
    xs = np.linspace(x_star - 1e-3, x_star + 1e-3, 41)
    assert re_w(xs[0]) * re_w(xs[-1]) < 0
    vals = headway.y_pgf(xs + 0.2j, lam, hm)
    steps = np.abs(np.diff(vals))
    assert np.max(steps) < 1e-4


# (mu, sigma, lam, C): the models of the tests above, and stressed ones: a
# headway deterministic to within 1e-12 and to 1e-6, a spread 800 times the
# mean, a long headway at a high rate, a rate of 1e-9 and one of 10 per
# near-zero headway, each read on the interval (1, 1 + 8/C] the x* search uses
REAL_AXIS_CASES = [(4.0, 2.0, 0.5, 1), (7.2, 4.47, 2.4, 34), (5.0, 3.0, 1.1, 1),
                   (4.0, 0.0, 0.7, 34), (6.0, 6e-12, 3.0, 34), (6.0, 6e-6, 3.0, 34),
                   (0.05, 40.0, 1.0, 400), (20.0, 3.0, 15.0, 400), (6.0, 2.0, 1e-9, 1),
                   (0.05, 5.0, 10.0, 60)]


def test_y_pgf_real_axis_closed_form_matches_the_complex_path():
    # a real float z >= 1 takes the closed form in math's scalar functions,
    # which must give the complex path's value to 1e-14 relative wherever
    # the x* search reads it: at every station of both presets and above
    cases = list(REAL_AXIS_CASES)
    for name in model.PRESETS:
        sc = model.preset(name)
        cases += [(hw.mu, hw.sigma, lam, sc.route.capacity)
                  for n, lam in enumerate(sc.route.arrival_rates(), 1)
                  for hw in [headway.truncated_headway(sc, n)]]
    assert len(cases) == 30
    for mu, sigma, lam, cap in cases:
        hm = _model(mu, sigma)
        for x in 1.0 + (8.0 / cap) * np.arange(1, 65) / 64.0:
            real = headway.y_pgf(float(x), lam, hm)
            full = headway.y_pgf(complex(x), lam, hm)
            assert isinstance(real, float)
            assert abs(real - full.real) <= 1e-14 * real, (mu, sigma, lam, x)
            assert abs(full.imag) <= 1e-14 * real, (mu, sigma, lam, x)


@pytest.mark.parametrize("sigma, lam, x", [(2.0, 500.0, 9.0), (0.0, 500.0, 9.0),
                                           (2.0, 1e300, 2.0), (1e-300, 1e300, 1.5)])
def test_y_pgf_real_axis_overflow_reads_inf(sigma, lam, x):
    # exp overflows, or u^2 does, but the real branch returns inf and the
    # x* search reads that as beyond x*
    assert headway.y_pgf(x, lam, _model(6.0, sigma)) == math.inf


def test_y_pgf_real_branch_takes_only_finite_floats_from_one():
    hm = _model(4.0, 2.0)
    assert isinstance(headway.y_pgf(0.5, 1.0, hm), complex)
    assert isinstance(headway.y_pgf(1.5 + 0j, 1.0, hm), complex)
    with pytest.raises(ValueError, match="non-finite"):
        headway.y_pgf(math.inf, 1.0, hm)


# exp(x^2) erfc(x), computed once with mpmath at 60 digits
ERFCX_REFERENCE = [
    (0j, 1 + 0j),
    (1e-08 + 0j, 0.9999999887162084 + 0j),
    (0.5 + 0j, 0.6156903441929259 + 0j),
    (1 + 1j, 0.3047442052569126 - 0.20821893820283163j),
    (3 - 2j, 0.13075746966984858 + 0.08111265047745665j),
    (5j, 1.3887943864964021e-11 - 0.11524596183093659j),
    (-30j, 0.018816784868660726j),
    (0.25 + 6j, 0.0040859383398352545 - 0.09521807564156685j),
    (10 + 10j, 0.028279467454232456 - 0.028138433276336895j),
    (700 - 40j, 0.0008033610903845169 + 4.590625464093947e-05j),
    (1e8 + 1e6j, 5.6413317023073315e-09 - 5.6413317023073315e-11j),
    (1000j, -0.0005641898656429712j),
]


def _erfcx_probe_points() -> np.ndarray:
    rng = np.random.default_rng(11)
    near_zero = rng.uniform(0.0, 1e-3, 200) + 1j * rng.uniform(-1e-3, 1e-3, 200)
    imag_axis = 1j * np.r_[rng.uniform(-1e3, 1e3, 200), np.linspace(-30.0, 30.0, 201)]
    radius = 10.0 ** rng.uniform(-8.0, 8.0, 300)
    wide = radius * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2, 300))
    # the arguments y_pgf hands the kernel while test_y_pgf_branch_seam walks
    # across Re(w) = 0, reflected into Re >= 0 as y_pgf does
    hm, lam = _model(7.2, 4.47), 2.4
    x_star = 1.0 - hm.mu / (hm.sigma**2 * lam)
    z = np.linspace(x_star - 1e-3, x_star + 1e-3, 41) + 0.2j
    w = -hm.mu / hm.sigma - hm.sigma * lam * (z - 1.0)
    seam = np.where(w.real < 0.0, -w, w) / math.sqrt(2.0)
    return np.r_[near_zero, imag_axis, wide, 1e8 * np.exp(0.5j * np.pi * np.linspace(-1, 1, 41)),
                 seam]


@pytest.mark.parametrize("batch", [1, 16, None])
def test_erfcx_matches_scipy(batch):
    x = _erfcx_probe_points()
    if batch is None:
        got = headway.erfcx(np.tile(x, 4))[:len(x)]
    else:
        got = np.concatenate([headway.erfcx(x[i:i + batch]) for i in range(0, len(x), batch)])
    assert np.all(x.real >= 0.0)
    want = scipy_erfcx(x)
    assert np.max(np.abs(got - want) / np.abs(want)) < 5e-14


def test_erfcx_reference_values():
    x = np.array([p for p, _ in ERFCX_REFERENCE])
    want = np.array([v for _, v in ERFCX_REFERENCE])
    got = headway.erfcx(x)
    assert np.max(np.abs(got - want) / np.abs(want)) < 2e-15
    assert headway.erfcx(0.5) == pytest.approx(ERFCX_REFERENCE[2][1], rel=2e-15)


def test_ndtr_matches_scipy():
    # Phi's relative condition number is about x^2 in the lower tail, so an
    # ulp in the internal argument x / sqrt(2) moves Phi(-37) by ~1e-13 in
    # any implementation (scipy's own ndtr is that far off mpmath there);
    # the bound scales with it, and below the normal range both underflow
    xs = np.linspace(-38.0, 8.0, 46001)
    got = np.array([headway.ndtr(x) for x in xs])
    want = ndtr(xs)
    normal = want >= np.finfo(float).tiny
    rel = np.abs(got - want)[normal] / want[normal]
    assert np.all(rel <= 1e-15 * np.maximum(1.0, xs[normal] ** 2))
    assert np.max(rel[np.abs(xs[normal]) <= 1.0]) <= 1e-15
    assert np.all(np.abs(got - want)[~normal] < np.finfo(float).tiny)


def test_y_pgf_matches_series_pmf():
    # the FFT-inverted series must be a genuine pmf reproducing the PGF
    hm = _model(5.0, 3.0)
    pmf = oracles.arrival_pmf(1.1, hm)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    for z in (0.3, 0.8, -0.5, 0.2 + 0.6j):
        series = np.polynomial.polynomial.polyval(z, pmf)
        assert abs(series - headway.y_pgf(z, 1.1, hm)) < 1e-12


@given(
    lam=st.floats(0.05, 3.0),
    mu=st.floats(1.0, 10.0),
    sigma=st.floats(0.0, 8.0),
)
@settings(max_examples=25)
def test_y_moments_match_pgf_derivatives(lam, mu, sigma):
    hm = _model(mu, sigma)
    got = headway.y_moments(lam, hm)
    fm = oracles.pgf_factorial_moments(lambda z: headway.y_pgf(z, lam, hm))
    mean, var, c3 = oracles.factorial_to_central(fm)
    assert got.mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert got.central2 == pytest.approx(var, rel=1e-9, abs=1e-9)
    assert got.central3 == pytest.approx(c3, rel=1e-8, abs=1e-7)


def test_y_moments_zero_rate():
    ym = headway.y_moments(0.0, _model(5.0, 2.0))
    assert (ym.mean, ym.central2, ym.central3) == (0.0, 0.0, 0.0)


def test_sample_incident_duration_statistics():
    rng = np.random.default_rng(11)
    draws = oracles.sample_compound_delay(rng, 0.2, 1.0, 25.0, 20000)
    assert draws.min() >= 0.0
    assert np.mean(draws) == pytest.approx(5.0, abs=5 * np.std(draws) / math.sqrt(len(draws)))
    assert np.mean(draws == 0.0) == pytest.approx(math.exp(-5.0), abs=0.005)
