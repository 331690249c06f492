"""Geometric-compounded univariate law: evaluation, transforms, latent ops."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from gdge import (
    UgdgeParams,
    compound_geometric_params,
    cond_n_argmax,
    cond_n_mean,
    cond_n_pmf,
    dge_cdf,
    dge_hazard,
    dge_pmf,
    hazard_weight,
    mixture_cdf_approx,
    pmf_weight,
    ugdge_cdf,
    ugdge_hazard,
    ugdge_mgf,
    ugdge_moment,
    ugdge_pgf,
    ugdge_pmf,
    ugdge_quantile,
    ugdge_sample,
)
from latent_series import series_cond_n_mean

alphas = st.floats(0.2, 8.0)
ps = st.floats(0.05, 0.9)
thetas = st.floats(0.05, 1.0)

CASES = [
    UgdgeParams.from_values(1.5, math.exp(-1.0), 0.5),
    UgdgeParams.from_values(0.4, 0.3, 0.2),
    UgdgeParams.from_values(4.0, 0.7, 0.9),
    UgdgeParams.from_values(2.0, 0.25, 0.25),
    UgdgeParams.from_values(6.0, 0.15, 1.0),
]


def series_cdf(params, x):
    """Independent oracle: geometric mixture of base-law cdf powers."""
    a = float(dge_cdf(params.base, x))
    th = params.theta
    tau = 1.0 - th
    total = 0.0
    tk = 1.0
    ak = a
    for _ in range(20_000):
        total += th * tk * ak
        tk *= tau
        ak *= a
        if tk < 1e-16:
            break
    return total


def grid_pmf(params, n):
    return np.asarray(ugdge_pmf(params, np.arange(n)))


# ---------------------------------------------------------------------------
# evaluation against oracles


@pytest.mark.parametrize("params", CASES)
def test_cdf_matches_mixture_series_oracle(params):
    for x in range(0, 40, 3):
        assert ugdge_cdf(params, x) == pytest.approx(series_cdf(params, x), abs=1e-12)


@pytest.mark.parametrize("params", CASES)
def test_pmf_is_cdf_increment(params):
    xs = np.arange(0, 30)
    inc = np.diff(np.concatenate([[0.0], np.asarray(ugdge_cdf(params, xs))]))
    assert np.allclose(grid_pmf(params, 30), inc, rtol=1e-9, atol=1e-14)


@pytest.mark.parametrize("params", CASES)
def test_pmf_sums_to_one(params):
    n = 1200
    total = grid_pmf(params, n).sum()
    assert total == pytest.approx(1.0, abs=1e-10)


def test_theta_one_reduces_to_base_law():
    base_al, base_p = 2.2, 0.45
    u = UgdgeParams.from_values(base_al, base_p, 1.0)
    from gdge import DgeParams

    d = DgeParams(base_al, base_p)
    xs = np.arange(0, 25)
    assert np.allclose(ugdge_pmf(u, xs), dge_pmf(d, xs), rtol=1e-12)
    assert np.allclose(ugdge_cdf(u, xs), dge_cdf(d, xs), rtol=1e-12)


def test_cdf_negative_and_fractional_arguments():
    u = CASES[0]
    assert ugdge_cdf(u, -1) == 0.0
    assert ugdge_cdf(u, 2.7) == ugdge_cdf(u, 2)


def test_hazard_is_pmf_over_upper_tail():
    # upper tail summed term-by-term: subtracting cdf from 1 cancels badly
    # once the tail drops below ~1e-8, which is noise in the oracle, not the law
    for params in CASES[:3]:
        for x in range(0, 15):
            upper = float(np.sum(np.asarray(ugdge_pmf(params, np.arange(x, x + 800)))))
            assert ugdge_hazard(params, x) == pytest.approx(
                ugdge_pmf(params, x) / upper, rel=1e-9
            )


def test_hazard_weight_identity():
    # compounded hazard = weight * base hazard, weight based on the base cdf
    for params in CASES[:4]:
        for x in range(0, 12):
            expected = hazard_weight(params, x) * dge_hazard(params.base, x)
            assert ugdge_hazard(params, x) == pytest.approx(expected, rel=1e-10)


def test_pmf_weight_identity():
    for params in CASES[:4]:
        for x in range(0, 12):
            expected = pmf_weight(params, x) * dge_pmf(params.base, x)
            assert ugdge_pmf(params, x) == pytest.approx(expected, rel=1e-10)


def test_weights_bounded_for_interior_theta():
    params = CASES[3]
    for x in range(0, 20):
        w = hazard_weight(params, x)
        assert params.theta <= w <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# quantiles and moments


@pytest.mark.parametrize("params", CASES)
def test_quantile_bracketing(params):
    for gamma in np.arange(0.01, 1.0, 0.01):
        q = ugdge_quantile(params, float(gamma))
        assert ugdge_cdf(params, q) >= gamma - 1e-12
        if q > 0:
            assert ugdge_cdf(params, q - 1) < gamma + 1e-12


def test_quantile_examples():
    assert ugdge_quantile(CASES[0], 0.5) == 1
    assert ugdge_quantile(CASES[0], 0.999) >= 8
    with pytest.raises(ValueError):
        ugdge_quantile(CASES[0], 0.0)
    with pytest.raises(ValueError):
        ugdge_quantile(CASES[0], 1.0)


@pytest.mark.parametrize("params", CASES)
def test_first_moment_matches_survival_sum(params):
    # E X = sum_{x>=1} P(X >= x), summed until the tail is negligible
    total = 0.0
    for x in range(1, 4000):
        s = 1.0 - ugdge_cdf(params, x - 1)
        total += s
        if s < 1e-15:
            break
    assert ugdge_moment(params, 1) == pytest.approx(total, rel=1e-9)


def test_higher_moments_match_grid():
    params = CASES[1]
    pm = grid_pmf(params, 3000)
    xs = np.arange(3000, dtype=float)
    for r in (2, 3):
        assert ugdge_moment(params, r) == pytest.approx((xs**r * pm).sum(), rel=1e-8)


@pytest.mark.parametrize("r", [0, -1, True, 2.0], ids=repr)
def test_moment_validation(r):
    with pytest.raises(ValueError):
        ugdge_moment(CASES[0], r)


# ---------------------------------------------------------------------------
# generating functions


@pytest.mark.parametrize("params", CASES)
def test_pgf_matches_grid_sum(params):
    pm = grid_pmf(params, 2000)
    xs = np.arange(2000, dtype=float)
    for z in (-0.9, -0.3, 0.0, 0.4, 0.95):
        assert ugdge_pgf(params, z) == pytest.approx((z**xs * pm).sum(), abs=1e-10)


def test_pgf_domain():
    for z in (1.0, -1.0, 1.2, -3.0):
        with pytest.raises(ValueError):
            ugdge_pgf(CASES[0], z)


@pytest.mark.parametrize("params", CASES)
def test_mgf_matches_grid_sum(params):
    # oracle summed in log space: exp(t*x) overflows on the raw grid while the
    # products exp(t*x)*pmf(x) themselves stay finite
    pm = grid_pmf(params, 4000)
    xs = np.arange(4000, dtype=float)
    log_pm = np.full(pm.shape, -np.inf)
    np.log(pm, out=log_pm, where=pm > 0)
    t_hi = -math.log(params.base.p)
    for t in (-1.0, 0.2 * t_hi, 0.8 * t_hi):
        oracle = math.exp(logsumexp(t * xs + log_pm))
        assert ugdge_mgf(params, t) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("excess", [0.0, 0.5, 800.0, 1e308], ids=repr)
def test_mgf_domain_boundary(excess):
    # a rate whose exp overflows is past the boundary too
    params = CASES[0]
    with pytest.raises(ValueError, match="series diverges"):
        ugdge_mgf(params, -math.log(params.base.p) + excess)


def test_mgf_at_zero_is_one():
    for params in CASES:
        assert ugdge_mgf(params, 0.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("fn,arg,want", [(ugdge_moment, 1, 502.53082599692528097),
                                         (ugdge_mgf, 0.5, 2.3241845376950265665e109),
                                         (ugdge_pgf, 0.5, 1.8504389772266276128e-151)], ids=["moment", "mgf", "pgf"])
def test_series_at_a_theta_whose_square_is_no_float(fn, arg, want):
    # theta = 1e-200: the mass sits near x = 500, where p^x ~ theta; theta^2 underflows, and so do a product of
    # two corner denominators near theta and the tail bound's q^a past the mass.  References: the pmf summed
    # over x < 2500 in mpmath at 450 digits
    assert fn(UgdgeParams.from_values(1.5, 0.4, 1e-200), arg) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# mixture truncation and geometric closure


@given(alphas, ps, st.floats(0.05, 0.95), st.integers(1, 60), st.integers(0, 40))
def test_mixture_truncation_error_bound(al, p, th, n_terms, x):
    params = UgdgeParams.from_values(al, p, th)
    approx = mixture_cdf_approx(params, x, n_terms)
    exact = ugdge_cdf(params, x)
    bound = (1.0 - th) ** n_terms
    # lower slack: once the truncation error is below machine epsilon the two
    # routes can land an ulp apart in either direction
    assert -1e-13 <= exact - approx <= bound + 1e-12


def test_mixture_approx_vectorizes():
    params = CASES[0]
    out = mixture_cdf_approx(params, np.arange(6), 30)
    assert out.shape == (6,)
    assert np.all(np.diff(out) >= -1e-15)


def test_compound_geometric_closure_against_mixture_algebra():
    # the maximum over a geometric(q) number of copies has cdf qF/(1-(1-q)F)
    for params in CASES[:4]:
        for q in (0.3, 0.8):
            new = compound_geometric_params(params, q)
            assert new.theta == pytest.approx(q * params.theta)
            for x in range(0, 20, 2):
                f = ugdge_cdf(params, x)
                oracle = q * f / (1.0 - (1.0 - q) * f)
                assert ugdge_cdf(new, x) == pytest.approx(oracle, rel=1e-11)


def test_compound_geometric_validation():
    with pytest.raises(ValueError):
        compound_geometric_params(CASES[0], 0.0)
    with pytest.raises(ValueError):
        compound_geometric_params(CASES[0], 1.2)


# ---------------------------------------------------------------------------
# latent-count conditionals


def brute_weights(params, x, n_max=6000):
    al, p, th = params.as_tuple()
    u = float(dge_cdf(params.base, x))
    v = float(dge_cdf(params.base, x - 1)) if x else 0.0
    ns = np.arange(1, n_max + 1, dtype=float)
    w = (1.0 - th) ** (ns - 1.0) * (u**ns - v**ns)
    return ns, w


@pytest.mark.parametrize("params", CASES[:4])
def test_cond_n_pmf_matches_normalized_weights(params):
    for x in (0, 1, 3, 7):
        ns, w = brute_weights(params, x)
        probs = w / w.sum()
        for n in (1, 2, 3, 10):
            assert cond_n_pmf(params, x, n) == pytest.approx(probs[n - 1], rel=1e-8, abs=1e-12)


def test_cond_n_pmf_normalizes():
    params = CASES[1]
    total = sum(cond_n_pmf(params, 2, n) for n in range(1, 2000))
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("params", CASES[:4])
def test_cond_n_argmax_matches_bruteforce(params):
    for x in (0, 1, 2, 5, 9):
        ns, w = brute_weights(params, x)
        assert cond_n_argmax(params, x) == int(ns[np.argmax(w)])


@pytest.mark.parametrize("params", CASES[:4])
def test_cond_n_mean_matches_bruteforce_and_closed_form(params):
    for x in (0, 1, 4, 8):
        ns, w = brute_weights(params, x)
        oracle = float((ns * w).sum() / w.sum())
        assert series_cond_n_mean(params, x) == pytest.approx(oracle, rel=1e-8)
        assert cond_n_mean(params, x) == pytest.approx(oracle, rel=1e-8)


def test_cond_n_degenerate_at_theta_one():
    params = CASES[4]
    assert cond_n_argmax(params, 3) == 1
    assert cond_n_pmf(params, 3, 1) == pytest.approx(1.0)
    assert cond_n_mean(params, 3) == pytest.approx(1.0)


def test_cond_n_validation():
    with pytest.raises(ValueError):
        cond_n_pmf(CASES[0], -1, 1)
    with pytest.raises(ValueError):
        cond_n_pmf(CASES[0], 1, 0)


# ---------------------------------------------------------------------------
# ordering properties


@given(alphas, ps, st.floats(0.05, 0.5), st.floats(0.51, 0.99), st.integers(0, 30))
def test_larger_compounding_prob_gives_smaller_values(al, p, th_small, th_big, x):
    lo = UgdgeParams.from_values(al, p, th_small)
    hi = UgdgeParams.from_values(al, p, th_big)
    assert ugdge_cdf(hi, x) >= ugdge_cdf(lo, x) - 1e-14


@given(st.floats(0.2, 2.0), st.floats(2.1, 8.0), ps, thetas, st.integers(0, 30))
def test_larger_shape_gives_larger_values(a_small, a_big, p, th, x):
    lo = UgdgeParams.from_values(a_small, p, th)
    hi = UgdgeParams.from_values(a_big, p, th)
    assert ugdge_cdf(lo, x) >= ugdge_cdf(hi, x) - 1e-14


@given(alphas, st.floats(0.05, 0.5), st.floats(0.51, 0.95), thetas, st.integers(0, 30))
def test_larger_p_gives_larger_values(al, p_small, p_big, th, x):
    lo = UgdgeParams.from_values(al, p_small, th)
    hi = UgdgeParams.from_values(al, p_big, th)
    assert ugdge_cdf(lo, x) >= ugdge_cdf(hi, x) - 1e-14


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("size", [100_000, None, 0, (3, 4)], ids=str)
@pytest.mark.parametrize("alpha,p,theta,seed", [(2.0, 0.3, 0.4, 123), (0.35, 0.97, 0.05, 7)])
def test_sampler_draw_order_is_frozen(alpha, p, theta, seed, size):
    """One geometric count, then one uniform per draw, through the inverse transform, bit for bit."""
    draws = ugdge_sample(UgdgeParams.from_values(alpha, p, theta), np.random.default_rng(seed), size=size)
    rng = np.random.default_rng(seed)
    n = rng.geometric(theta, size=size)
    u = rng.random(size)
    lam = -math.log(p)
    manual = np.floor(-np.log(-np.expm1(np.log(u) / (n * alpha))) / lam).astype(np.int64)
    if size is None:
        assert isinstance(draws, int) and draws == manual
    else:
        assert draws.dtype == np.int64 and draws.shape == manual.shape
        assert np.array_equal(draws, manual)


def test_sampler_frequencies_match_pmf(rng):
    params = CASES[3]
    draws = ugdge_sample(params, rng, size=40_000)
    kmax = 10
    obs = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1).astype(float)
    pm = grid_pmf(params, kmax + 1)
    expected = np.append(pm[:kmax], 1.0 - pm[:kmax].sum()) * draws.size
    stat = ((obs - expected) ** 2 / expected).sum()
    from gdge import chi2_sf

    assert chi2_sf(stat, kmax) > 0.01


def test_sampler_scalar_and_types(rng):
    one = ugdge_sample(CASES[0], rng)
    assert isinstance(one, int)
    arr = ugdge_sample(CASES[0], rng, size=10)
    assert arr.dtype == np.int64


def test_parameter_accessors():
    u = UgdgeParams.from_values(2.0, 0.3, 0.7)
    assert u.alpha == 2.0
    assert u.p == 0.3
    assert u.as_tuple() == (2.0, 0.3, 0.7)
    for bad in [(2.0, 0.3, 0.0), (2.0, 0.3, 1.4), (0.0, 0.3, 0.5)]:
        with pytest.raises(ValueError):
            UgdgeParams.from_values(*bad)
