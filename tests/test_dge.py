"""Base discrete law: floor of a continuous generalized-exponential variate."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdge import (
    DgeParams,
    GeParams,
    dge_cdf,
    dge_hazard,
    dge_pmf,
    dge_sample,
    ge_cdf,
    ge_sample,
)

alphas = st.floats(0.2, 8.0)
ps = st.floats(0.05, 0.9)


def grid_pmf(params, n):
    return np.asarray(dge_pmf(params, np.arange(n)))


# ---------------------------------------------------------------------------
# continuous layer


def test_ge_cdf_closed_form():
    g = GeParams(2.0, 0.5)
    # direct (1 - e^{-lam y})^alpha, naive arithmetic as the oracle
    for y in (0.1, 1.0, 3.7, 10.0):
        assert ge_cdf(g, y) == pytest.approx((1.0 - math.exp(-0.5 * y)) ** 2.0, rel=1e-12)
    assert ge_cdf(g, 0.0) == 0.0
    assert ge_cdf(g, -1.0) == 0.0


def test_ge_sample_inverse_transform_round_trip():
    g = GeParams(1.7, 0.9)
    for u in (0.013, 0.4, 0.87, 0.9991):
        y = ge_sample(g, u)
        assert ge_cdf(g, y) == pytest.approx(u, rel=1e-9)


def test_ge_sample_rejects_unit_endpoints():
    g = GeParams(1.0, 1.0)
    for u in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            ge_sample(g, u)


def test_ge_alpha_one_is_exponential():
    g = GeParams(1.0, 0.3)
    for y in (0.5, 2.0, 8.0):
        assert ge_cdf(g, y) == pytest.approx(1.0 - math.exp(-0.3 * y), rel=1e-12)


# ---------------------------------------------------------------------------
# discrete law


def test_pmf_matches_naive_power_arithmetic():
    d = DgeParams(2.5, 0.45)
    xs = np.arange(0, 30)
    naive = (1.0 - 0.45 ** (xs + 1.0)) ** 2.5 - (1.0 - 0.45 ** (xs * 1.0)) ** 2.5
    assert np.allclose(dge_pmf(d, xs), naive, rtol=1e-12, atol=1e-15)


def test_pmf_sums_to_one_with_certified_tail():
    for al, p in [(0.3, 0.2), (1.0, 0.5), (4.0, 0.8), (7.5, 0.33)]:
        d = DgeParams(al, p)
        n = 400
        total = grid_pmf(d, n).sum()
        tail = 1.0 - dge_cdf(d, n - 1)
        assert total + tail == pytest.approx(1.0, abs=1e-12)
        assert tail < 1e-12


def test_cdf_is_cumulative_sum_of_pmf():
    d = DgeParams(3.2, 0.6)
    pm = grid_pmf(d, 50)
    cums = np.cumsum(pm)
    assert np.allclose(dge_cdf(d, np.arange(50)), cums, rtol=1e-12)


def test_cdf_floor_semantics_and_negatives():
    d = DgeParams(2.0, 0.4)
    assert dge_cdf(d, 2.5) == dge_cdf(d, 2)
    assert dge_cdf(d, 0.999) == dge_cdf(d, 0)
    assert dge_cdf(d, -0.3) == 0.0
    assert dge_cdf(d, -4) == 0.0


def test_cdf_matches_continuous_law_at_shifted_argument():
    d = DgeParams(1.8, 0.35)
    g = d.continuous()
    assert g.lam == pytest.approx(-math.log(0.35))
    for x in range(8):
        assert dge_cdf(d, x) == pytest.approx(ge_cdf(g, x + 1.0), rel=1e-12)


def test_alpha_one_is_geometric():
    p = 0.37
    d = DgeParams(1.0, p)
    xs = np.arange(0, 25)
    assert np.allclose(dge_pmf(d, xs), (1 - p) * p**xs, rtol=1e-10)


def test_pmf_at_zero_is_one_minus_p_to_alpha():
    d = DgeParams(5.0, 0.7)
    assert dge_pmf(d, 0) == pytest.approx((1 - 0.7) ** 5.0, rel=1e-12)


def test_hazard_is_pmf_over_upper_tail():
    d = DgeParams(2.7, 0.55)
    for x in range(1, 20):
        surv = 1.0 - dge_cdf(d, x - 1)
        assert dge_hazard(d, x) == pytest.approx(dge_pmf(d, x) / surv, rel=1e-9)
    assert dge_hazard(d, 0) == pytest.approx(dge_pmf(d, 0), rel=1e-12)


def test_parameter_validation():
    for al, p in [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, 1.3), (float("nan"), 0.5), (1.0, float("nan"))]:
        with pytest.raises(ValueError):
            DgeParams(al, p)
    with pytest.raises(ValueError):
        GeParams(1.0, 0.0)


@given(alphas, ps, st.integers(0, 60))
def test_pmf_nonnegative_cdf_in_unit_interval(al, p, x):
    d = DgeParams(al, p)
    assert dge_pmf(d, x) >= 0.0
    assert 0.0 <= dge_cdf(d, x) <= 1.0


@given(alphas, ps, st.integers(0, 40))
def test_cdf_monotone_in_x(al, p, x):
    d = DgeParams(al, p)
    assert dge_cdf(d, x + 1) >= dge_cdf(d, x)


@given(alphas, st.floats(0.05, 0.5), st.floats(0.51, 0.95), st.integers(0, 30))
def test_larger_p_gives_stochastically_larger_values(al, p_small, p_big, x):
    assert dge_cdf(DgeParams(al, p_small), x) >= dge_cdf(DgeParams(al, p_big), x)


@given(st.floats(0.2, 2.0), st.floats(2.1, 9.0), ps, st.integers(0, 30))
def test_larger_shape_gives_stochastically_larger_values(a_small, a_big, p, x):
    assert dge_cdf(DgeParams(a_small, p), x) >= dge_cdf(DgeParams(a_big, p), x)


# ---------------------------------------------------------------------------
# sampling


def test_sample_types_and_range(rng):
    d = DgeParams(2.0, 0.4)
    one = dge_sample(d, rng)
    assert isinstance(one, int)
    arr = dge_sample(d, rng, size=200)
    assert arr.dtype == np.int64
    assert (arr >= 0).all()


def test_sample_frequencies_match_pmf(rng):
    d = DgeParams(2.0, 0.4)
    draws = dge_sample(d, rng, size=40_000)
    kmax = 8
    obs = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1).astype(float)
    pm = grid_pmf(d, kmax + 1)
    expected = np.append(pm[:kmax], 1.0 - pm[:kmax].sum()) * draws.size
    stat = ((obs - expected) ** 2 / expected).sum()
    from gdge import chi2_sf

    assert chi2_sf(stat, kmax) > 0.01


SIZES = [100_000, None, 0, (3, 4)]


@pytest.mark.parametrize("size", SIZES, ids=str)
@pytest.mark.parametrize("alpha,p,seed", [(1.3, 0.6, 42), (0.35, 0.97, 7)])
def test_sample_is_reproducible(alpha, p, seed, size):
    """Draws equal the inverse-transform expression on the generator's uniforms, bit for bit."""
    draws = dge_sample(DgeParams(alpha, p), np.random.default_rng(seed), size=size)
    u = np.random.default_rng(seed).random(size)
    manual = np.floor(-np.log(-np.expm1(np.log(u) / alpha)) / -math.log(p)).astype(np.int64)
    if size is None:
        assert isinstance(draws, int) and draws == manual
    else:
        assert draws.dtype == np.int64 and draws.shape == manual.shape
        assert np.array_equal(draws, manual)


def test_ge_sample_leaves_its_uniforms_unchanged():
    g = GeParams(1.7, 0.9)
    u = np.random.default_rng(3).random(1000)
    kept = u.copy()
    y = ge_sample(g, u)
    assert np.array_equal(u, kept)
    assert np.array_equal(y, -np.log(-np.expm1(np.log(kept) / 1.7)) / 0.9)
