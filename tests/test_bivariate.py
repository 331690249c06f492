"""Shared-count bivariate law: evaluation, conditionals, generating functions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdge import (
    BgdgeParams,
    BivCell,
    bgdge_cdf,
    bgdge_mgf,
    bgdge_pgf,
    bgdge_pmf,
    bgdge_sample,
    biv_compound_geometric_params,
    biv_cond_n_argmax,
    biv_cond_n_mean,
    biv_cond_n_pmf,
    chi2_sf,
    cond_cdf_given_eq,
    cond_given_le,
    dge_cdf,
    marginal_params,
    max_params,
    prob_eq_le,
    ugdge_cdf,
    ugdge_mgf,
    ugdge_pgf,
    ugdge_pmf,
)
from latent_series import series_biv_cond_n_mean

CASES = [
    BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25),
    BgdgeParams.from_values(1.5, 0.5, 3.0, 0.3, 0.6),
    BgdgeParams.from_values(0.5, 0.4, 0.8, 0.6, 0.9),
    BgdgeParams.from_values(4.0, 0.2, 1.0, 0.7, 1.0),
]

alphas = st.floats(0.3, 6.0)
ps = st.floats(0.1, 0.8)
thetas = st.floats(0.1, 1.0)


def series_cdf(params, x, y):
    """Independent oracle: geometric mixture of products of base cdfs."""
    th = params.theta
    a = float(dge_cdf(params.m1, x)) * float(dge_cdf(params.m2, y))
    tau = 1.0 - th
    total, tk, ak = 0.0, 1.0, a
    for _ in range(20_000):
        total += th * tk * ak
        tk *= tau
        ak *= a
        if tk < 1e-16:
            break
    return total


def pmf_rect(params, nx, ny):
    ys = np.arange(ny)
    return np.array([bgdge_pmf(params, x, ys) for x in range(nx)])


# ---------------------------------------------------------------------------
# evaluation


@pytest.mark.parametrize("params", CASES)
def test_cdf_matches_mixture_series_oracle(params):
    for x in (0, 1, 3, 8):
        for y in (0, 2, 5):
            assert bgdge_cdf(params, x, y) == pytest.approx(series_cdf(params, x, y), abs=1e-12)


@pytest.mark.parametrize("params", CASES)
def test_pmf_matches_corner_difference_oracle(params):
    for x in range(0, 7):
        for y in range(0, 7):
            oracle = (
                bgdge_cdf(params, x, y)
                - bgdge_cdf(params, x - 1, y)
                - bgdge_cdf(params, x, y - 1)
                + bgdge_cdf(params, x - 1, y - 1)
            )
            assert bgdge_pmf(params, x, y) == pytest.approx(oracle, abs=5e-13)


@pytest.mark.parametrize("params", CASES)
def test_pmf_nonnegative_and_sums_to_one(params):
    rect = pmf_rect(params, 120, 120)
    assert (rect >= 0.0).all()
    assert rect.sum() == pytest.approx(1.0, abs=1e-9)


def test_cdf_negative_arguments_and_floor():
    b = CASES[1]
    assert bgdge_cdf(b, -1, 5) == 0.0
    assert bgdge_cdf(b, 5, -1) == 0.0
    assert bgdge_cdf(b, 2.9, 3.1) == bgdge_cdf(b, 2, 3)


@pytest.mark.parametrize("params", CASES)
def test_prob_eq_le_matches_row_sums(params):
    for x in range(0, 6):
        row = np.array([bgdge_pmf(params, x, y) for y in range(0, 9)])
        for y in range(0, 9):
            assert prob_eq_le(params, x, y) == pytest.approx(row[: y + 1].sum(), abs=1e-12)


def test_prob_eq_le_boundary_y():
    b = CASES[0]
    assert prob_eq_le(b, 2, -1) == 0.0
    with pytest.raises(ValueError):
        prob_eq_le(b, -1, 2)


@pytest.mark.parametrize("params", CASES)
def test_marginals_match_univariate_law(params):
    mx = marginal_params(params, "x")
    my = marginal_params(params, "y")
    big = 400
    for t in range(0, 12):
        assert bgdge_cdf(params, t, big) == pytest.approx(ugdge_cdf(mx, t), abs=1e-10)
        assert bgdge_cdf(params, big, t) == pytest.approx(ugdge_cdf(my, t), abs=1e-10)


def test_marginal_axis_validation():
    with pytest.raises(ValueError):
        marginal_params(CASES[0], "z")


def test_theta_one_factorizes_into_independent_margins():
    params = CASES[3]
    mx, my = marginal_params(params, "x"), marginal_params(params, "y")
    for x in range(0, 6):
        for y in range(0, 6):
            prod = float(ugdge_pmf(mx, x)) * float(ugdge_pmf(my, y))
            assert bgdge_pmf(params, x, y) == pytest.approx(prod, rel=1e-9, abs=1e-14)


@given(alphas, ps, alphas, ps, st.floats(0.1, 0.9), st.integers(0, 12), st.integers(0, 12))
def test_positive_dependence_for_interior_theta(a1, p1, a2, p2, th, x, y):
    params = BgdgeParams.from_values(a1, p1, a2, p2, th)
    mx, my = marginal_params(params, "x"), marginal_params(params, "y")
    joint = bgdge_cdf(params, x, y)
    assert joint >= float(ugdge_cdf(mx, x)) * float(ugdge_cdf(my, y)) - 1e-12


# ---------------------------------------------------------------------------
# derived laws


def test_max_params_matches_diagonal_cdf():
    params = BgdgeParams.from_values(1.5, 0.35, 2.5, 0.35, 0.45)
    mx = max_params(params)
    assert mx.alpha == pytest.approx(4.0)
    for z in range(0, 12):
        assert ugdge_cdf(mx, z) == pytest.approx(bgdge_cdf(params, z, z), rel=1e-11)


def test_max_params_requires_shared_p():
    with pytest.raises(ValueError):
        max_params(CASES[1])


def test_cond_given_le_is_compounded_with_shifted_theta():
    params = CASES[1]
    my = marginal_params(params, "y")
    for y in (0, 1, 4):
        cond = cond_given_le(params, y)
        fy = float(ugdge_cdf(my, y))
        for x in range(0, 10):
            oracle = bgdge_cdf(params, x, y) / fy
            assert ugdge_cdf(cond, x) == pytest.approx(oracle, rel=1e-10)


def test_cond_given_le_floors_y_and_names_it_when_nan():
    b = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    assert cond_given_le(b, 2.5) == cond_given_le(b, 2)
    assert cond_given_le(b, math.inf).theta == b.theta
    for y in (math.nan, -1):
        with pytest.raises(ValueError, match="cond_given_le y"):
            cond_given_le(b, y)


def test_cond_cdf_given_eq_matches_bayes_oracle():
    params = CASES[1]
    my = marginal_params(params, "y")
    for y in (0, 2, 4):
        fy = float(ugdge_pmf(my, y))
        col = np.array([bgdge_pmf(params, x, y) for x in range(0, 40)])
        for x in (0, 1, 3, 8):
            oracle = col[: x + 1].sum() / fy
            assert cond_cdf_given_eq(params, x, y) == pytest.approx(oracle, rel=1e-8)


def test_compound_geometric_closure():
    params = CASES[1]
    for q in (0.3, 0.8):
        new = biv_compound_geometric_params(params, q)
        assert new.theta == pytest.approx(q * params.theta)
        for x, y in [(0, 0), (2, 1), (5, 3)]:
            f = bgdge_cdf(params, x, y)
            oracle = q * f / (1.0 - (1.0 - q) * f)
            assert bgdge_cdf(new, x, y) == pytest.approx(oracle, rel=1e-11)


# ---------------------------------------------------------------------------
# latent-count conditionals


def brute_weights(params, x, y, n_max=6000):
    a1, p1, a2, p2, th = params.as_tuple()
    u1 = float(dge_cdf(params.m1, x))
    v1 = float(dge_cdf(params.m1, x - 1)) if x else 0.0
    u2 = float(dge_cdf(params.m2, y))
    v2 = float(dge_cdf(params.m2, y - 1)) if y else 0.0
    ns = np.arange(1, n_max + 1, dtype=float)
    w = (1.0 - th) ** (ns - 1.0) * (u1**ns - v1**ns) * (u2**ns - v2**ns)
    return ns, w


@pytest.mark.parametrize("params", CASES[:3])
def test_biv_cond_n_pmf_matches_normalized_weights(params):
    for x, y in [(0, 0), (1, 2), (4, 3)]:
        ns, w = brute_weights(params, x, y)
        probs = w / w.sum()
        for n in (1, 2, 5):
            assert biv_cond_n_pmf(params, x, y, n) == pytest.approx(
                probs[n - 1], rel=1e-8, abs=1e-12
            )


@pytest.mark.parametrize("params", CASES[:3])
def test_biv_cond_n_argmax_matches_bruteforce(params):
    for x, y in [(0, 0), (1, 1), (3, 5), (7, 2)]:
        ns, w = brute_weights(params, x, y)
        assert biv_cond_n_argmax(params, x, y) == int(ns[np.argmax(w)])


@pytest.mark.parametrize("params", CASES[:3])
def test_biv_cond_n_mean_matches_bruteforce_and_closed_form(params):
    for x, y in [(0, 1), (2, 2), (5, 4)]:
        ns, w = brute_weights(params, x, y)
        oracle = float((ns * w).sum() / w.sum())
        assert series_biv_cond_n_mean(params, x, y) == pytest.approx(oracle, rel=1e-8)
        assert biv_cond_n_mean(params, x, y) == pytest.approx(oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# generating functions


def test_pgf_matches_grid_sum():
    params = CASES[1]
    rect = pmf_rect(params, 90, 90)
    g1 = np.arange(90, dtype=float)
    for z1, z2 in [(0.5, 0.5), (-0.6, 0.8), (0.9, -0.2), (0.0, 0.5)]:
        oracle = (rect * np.outer(np.sign(z1) ** g1 * np.abs(z1) ** g1 if z1 else (g1 == 0),
                                  np.sign(z2) ** g1 * np.abs(z2) ** g1 if z2 else (g1 == 0))).sum()
        assert bgdge_pgf(params, z1, z2) == pytest.approx(float(oracle), abs=1e-9)


def test_pgf_domain_and_origin():
    params = CASES[0]
    with pytest.raises(ValueError):
        bgdge_pgf(params, 1.0, 0.5)
    with pytest.raises(ValueError):
        bgdge_pgf(params, 0.5, -1.0)
    assert bgdge_pgf(params, 0.0, 0.0) == pytest.approx(bgdge_pmf(params, 0, 0), rel=1e-12)


def test_mgf_matches_grid_sum():
    params = CASES[0]
    rect = pmf_rect(params, 110, 110)
    g = np.arange(110, dtype=float)
    for t1, t2 in [(-0.5, -1.0), (0.3, 0.2), (0.5, -0.4), (0.0, 0.0)]:
        oracle = (rect * np.outer(np.exp(t1 * g), np.exp(t2 * g))).sum()
        assert bgdge_mgf(params, t1, t2) == pytest.approx(float(oracle), rel=1e-7)


@pytest.mark.parametrize("theta", [1.0, 0.25, 0.05, 0.01])
@pytest.mark.parametrize("law", [(2.0, 0.25, 2.0, 0.25), (2.0, 0.9, 2.0, 0.9), (0.5, 0.4, 0.8, 0.6)])
def test_mgf_at_a_zero_rate_is_the_other_marginal(law, theta):
    # the old count-sum stop, tau^n < eps (|total| + 1), left 1.8e-12 of the
    # mass of (2, .25, 2, .25, .25) and 1.9e-12 of (2, .9, 2, .9, .05) unsummed
    params = BgdgeParams.from_values(*law, theta)
    assert bgdge_mgf(params, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    for axis, t_hi in (("x", -math.log(law[1])), ("y", -math.log(law[3]))):
        margin = marginal_params(params, axis)
        for t in (-1.0, -0.1, 0.3 * t_hi, 0.8 * t_hi):
            ts = (t, 0.0) if axis == "x" else (0.0, t)
            assert bgdge_mgf(params, *ts) == pytest.approx(ugdge_mgf(margin, t), rel=1e-12)


def test_pgf_at_one_zero_argument_is_a_count_sum_of_the_other():
    # z = 0 on one axis keeps only x = 0 there: sum_y P(0, y) z^y, summed over the cells
    params = CASES[0]
    ys = np.arange(200)
    for z in (0.4, -0.7):
        want = math.fsum((bgdge_pmf(params, 0, ys) * z ** ys).tolist())
        assert bgdge_pgf(params, 0.0, z) == pytest.approx(want, rel=1e-12)
        assert bgdge_pgf(params, z, 0.0) == pytest.approx(want, rel=1e-12)
    assert ugdge_pgf(marginal_params(params, "x"), 0.0) == ugdge_pmf(marginal_params(params, "x"), 0)


def test_mgf_domain():
    params = CASES[0]  # p = 0.25 on both axes
    t_hi = -math.log(0.25)
    with pytest.raises(ValueError):
        bgdge_mgf(params, t_hi, 0.0)
    with pytest.raises(ValueError):
        bgdge_mgf(params, 0.0, t_hi + 0.1)


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("size", [100_000, None, 0, (3, 4)], ids=str)
@pytest.mark.parametrize("values,seed", [((2.0, 0.25, 2.0, 0.25, 0.25), 55), ((0.35, 0.97, 1.7, 0.3, 0.05), 8)])
def test_sampler_draw_order_is_frozen(values, seed, size):
    """One shared geometric count, then one uniform per axis, x before y, bit for bit."""
    a1, p1, a2, p2, theta = values
    draws = bgdge_sample(BgdgeParams.from_values(*values), np.random.default_rng(seed), size=size)
    rng = np.random.default_rng(seed)
    n = rng.geometric(theta, size=size)
    u = rng.random(size)
    v = rng.random(size)
    mx = np.floor(-np.log(-np.expm1(np.log(u) / (n * a1))) / -math.log(p1)).astype(np.int64)
    my = np.floor(-np.log(-np.expm1(np.log(v) / (n * a2))) / -math.log(p2)).astype(np.int64)
    if size is None:
        assert draws == BivCell(int(mx), int(my)) and isinstance(draws.x, int) and isinstance(draws.y, int)
    else:
        bx, by = draws
        assert bx.dtype == by.dtype == np.int64 and bx.shape == by.shape == mx.shape
        assert np.array_equal(bx, mx) and np.array_equal(by, my)


def test_sampler_joint_frequencies_match_pmf(rng):
    params = CASES[1]
    bx, by = bgdge_sample(params, rng, size=30_000)
    kx = ky = 5
    obs = np.zeros((kx + 1, ky + 1))
    np.add.at(obs, (np.minimum(bx, kx), np.minimum(by, ky)), 1)
    rect = pmf_rect(params, 200, 200)
    exp = np.zeros((kx + 1, ky + 1))
    exp[:kx, :ky] = rect[:kx, :ky]
    exp[kx, :ky] = rect[kx:, :ky].sum(axis=0)
    exp[:kx, ky] = rect[:kx, ky:].sum(axis=1)
    exp[kx, ky] = rect[kx:, ky:].sum()
    exp *= bx.size
    stat = ((obs - exp) ** 2 / exp).sum()
    df = (kx + 1) * (ky + 1) - 1
    assert chi2_sf(stat, df) > 0.01


def test_sampler_scalar_returns_cell(rng):
    out = bgdge_sample(CASES[0], rng)
    assert isinstance(out, BivCell)
    assert out.x >= 0 and out.y >= 0


def test_parameter_validation_and_accessors():
    b = BgdgeParams.from_values(1.0, 0.2, 3.0, 0.4, 0.6)
    assert b.as_tuple() == (1.0, 0.2, 3.0, 0.4, 0.6)
    for bad in [
        (0.0, 0.2, 3.0, 0.4, 0.6),
        (1.0, 1.0, 3.0, 0.4, 0.6),
        (1.0, 0.2, 3.0, 0.4, 0.0),
        (1.0, 0.2, 3.0, 0.4, 1.5),
    ]:
        with pytest.raises(ValueError):
            BgdgeParams.from_values(*bad)
    with pytest.raises(ValueError):
        BivCell(-1, 0)
