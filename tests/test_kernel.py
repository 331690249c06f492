"""The log-space pmf kernel, likelihoods on distinct cells, the latent-count modes, and the
latent-count laws and conditionals built on the kernel."""

import functools
import inspect
import itertools
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdge import (
    BgdgeParams,
    BivDataset,
    DgeParams,
    EmConfig,
    GeParams,
    SeriesCapError,
    UgdgeParams,
    bgdge_cdf,
    bgdge_mgf,
    bgdge_pgf,
    bgdge_pmf,
    bgdge_sample,
    biv_cond_n_argmax,
    biv_cond_n_mean,
    biv_cond_n_pmf,
    cond_cdf_given_eq,
    cond_given_le,
    cond_n_argmax,
    cond_n_mean,
    cond_n_pmf,
    dge_cdf,
    dge_hazard,
    dge_pmf,
    e_step,
    e_step_uni,
    hazard_weight,
    ge_cdf,
    latent_weighted_loglik,
    observed_loglik_biv,
    observed_loglik_uni,
    pmf_weight,
    prob_eq_le,
    ugdge_cdf,
    ugdge_hazard,
    ugdge_mgf,
    ugdge_moment,
    ugdge_pgf,
    ugdge_pmf,
    ugdge_quantile,
    ugdge_sample,
)
from gdge import bivariate, dge, fitting, univariate
from gdge.dge import _logpmf, _logpmf_and_grad, _stacked
from gdge.fitting import _base_ll
from latent_series import series_cond_n_mean

#: Working precision of the reference: 120 digits beyond the smallest pmf
#: (1e-280) that the relative bar applies to, so the CDF differences below
#: lose nothing that matters.
REF_DPS = 400
REL = 1e-12
TINY = 1e-280


def ref_cdf(alpha, p, theta, x):
    """Compounded CDF ``theta A / (1 - (1 - theta) A)`` in mpmath, A the base CDF."""
    if x < 0:
        return mp.mpf(0)
    a = (1 - mp.mpf(p) ** (x + 1)) ** mp.mpf(alpha)
    theta = mp.mpf(theta)
    return theta * a / (1 - (1 - theta) * a)


def ref_uni_pmf(alpha, p, theta, x):
    with mp.workdps(REF_DPS):
        return float(ref_cdf(alpha, p, theta, x) - ref_cdf(alpha, p, theta, x - 1))


def ref_biv_pmf(a1, p1, a2, p2, theta, x, y):
    """Four-corner difference of the joint CDF ``theta A B / (1 - (1 - theta) A B)``."""
    with mp.workdps(REF_DPS):
        def base(alpha, p, t):
            return (1 - mp.mpf(p) ** (t + 1)) ** mp.mpf(alpha) if t >= 0 else mp.mpf(0)

        def joint(s, t):
            w = base(a1, p1, s) * base(a2, p2, t)
            th = mp.mpf(theta)
            return th * w / (1 - (1 - th) * w)

        return float(joint(x, y) - joint(x - 1, y) - joint(x, y - 1) + joint(x - 1, y - 1))


def assert_close(got, want):
    got = np.ravel(got)
    want = np.asarray(want, dtype=float)
    mask = np.abs(want) > TINY
    assert mask.any()
    err = np.abs(got[mask] - want[mask]) / np.abs(want[mask])
    assert err.max() <= REL, f"relative error {err.max():.3g}"


# deep-tail grids: base laws whose CDFs crowd 1 long before the pmf vanishes
DEEP_UNI = [
    ((0.4, 0.3), np.arange(0, 120)),
    ((2.0, 0.9), np.arange(0, 600, 3)),
    # p near 1: log(1 - p^(x+1)) and log(1 - p^x) agree to 4 digits
    ((0.7, 0.9999), np.array([0, 1, 10, 1000, 20_000, 100_000, 300_000])),
]
DEEP_BIV = [
    ((2.0, 0.25, 2.0, 0.25, 0.25), np.arange(20, 41)),
    ((1.5, 0.6, 0.8, 0.5, 0.5), np.arange(25, 41)),
]

# the corners of the search box: shapes 1e-3 and 1e-2, p from 0.5 to 1 - 1e-6 and theta from 1e-6 to 1, at
# values up to 200; log(1 - p^x) taken as log1p of the rounded power p^x put the pmfs up to 1.7e-12 off here
CORNER_XS = [*range(11), 50, 200]
CORNER_PS, CORNER_THETAS = (0.5, 0.999, 1.0 - 1e-6), (1e-6, 1e-2, 1.0)
CORNER_BASES = [(alpha, p) for alpha in (1e-3, 1e-2) for p in CORNER_PS]
CORNERS = [(*law, theta) for law in CORNER_BASES for theta in CORNER_THETAS]
CORNER_PAIRS = [(1e-3, p, 1e-2, p, theta) for p in CORNER_PS for theta in CORNER_THETAS]


@pytest.mark.parametrize("theta", [1.0, 0.5, 1e-4, 1e-6])
@pytest.mark.parametrize("law,grid", DEEP_UNI)
def test_univariate_kernel_matches_reference_in_deep_tail(law, grid, theta):
    alpha, p = law
    if theta == 1.0:
        got = dge_pmf(DgeParams(alpha, p), grid)
    else:
        got = ugdge_pmf(UgdgeParams.from_values(alpha, p, theta), grid)
    assert_close(got, [ref_uni_pmf(alpha, p, theta, int(x)) for x in grid])


@pytest.mark.parametrize("theta_override", [None, 1e-6])
@pytest.mark.parametrize("law,grid", DEEP_BIV)
def test_bivariate_kernel_matches_reference_in_deep_tail(law, grid, theta_override):
    law = law[:4] + ((theta_override,) if theta_override else law[4:])
    gx, gy = np.meshgrid(grid[::3], grid[::3], indexing="ij")
    got = bgdge_pmf(BgdgeParams.from_values(*law), gx, gy)
    assert_close(got, [ref_biv_pmf(*law, int(x), int(y)) for x, y in zip(gx.ravel(), gy.ravel())])


@pytest.mark.parametrize("p", [0.9999, 0.99999])
def test_kernel_keeps_its_digits_where_the_base_power_crowds_1(p):
    # log(1 - p^(x+1)) taken from the rounded power p^(x+1) was off by up to 1e-12 here
    xs = np.arange(4)
    gx, gy = (g.ravel() for g in np.meshgrid(xs, xs, indexing="ij"))
    for got, want in [
        (ugdge_pmf(UgdgeParams.from_values(0.7, p, 0.5), xs), [ref_uni_pmf(0.7, p, 0.5, int(x)) for x in xs]),
        (bgdge_pmf(BgdgeParams.from_values(0.7, p, 0.7, p, 0.5), gx, gy),
         [ref_biv_pmf(0.7, p, 0.7, p, 0.5, int(x), int(y)) for x, y in zip(gx, gy)]),
    ]:
        assert np.abs(got / np.array(want) - 1.0).max() <= 5e-14


@pytest.mark.parametrize("p", [0.9999, 0.99999, 0.999999])
def test_cdfs_keep_their_digits_where_the_base_power_crowds_1(p):
    # log A(x) = alpha log(1 - p^(x+1)) taken as log1p of the rounded power p^(x+1) was off by up to 3e-11 here
    q = (2.0, p, 0.7, p, 0.3)
    uni, biv = UgdgeParams.from_values(*q[:2], q[4]), BgdgeParams.from_values(*q)
    xs = np.arange(11)
    gx, gy = (g.ravel() for g in np.meshgrid(xs, xs, indexing="ij"))
    with mp.workdps(REF_DPS):
        th = mp.mpf(q[4])

        def joint(s, t):
            w = ref_base(*q[:2], s) * ref_base(*q[2:4], t)
            return th * w / (1 - (1 - th) * w)

        base = [ref_base(*q[:2], int(x)) for x in xs]
        want = [
            [float(b) for b in base],
            [float(ref_cdf(*q[:2], q[4], int(x))) for x in xs],
            [float(th / (1 - (1 - th) * b)) for b in base],
            [float(joint(int(x), int(y))) for x, y in zip(gx, gy)],
            [float(joint(int(x), int(y)) - joint(int(x) - 1, int(y))) for x, y in zip(gx, gy)],
        ]
    got = [dge_cdf(uni.base, xs), ugdge_cdf(uni, xs), hazard_weight(uni, xs), bgdge_cdf(biv, gx, gy),
           prob_eq_le(biv, gx, gy)]
    got.append([ugdge_cdf(cond_given_le(biv, int(y)), xs) for y in xs])
    want.append([[ref_cdf_given_le(q, int(x), int(y)) for x in xs] for y in xs])
    got.append([cond_cdf_given_eq(biv, xs, int(y)) for y in xs])
    want.append([[ref_cond_cdf_given_eq(q, int(x), int(y)) for x in xs] for y in xs])
    for g, w in zip(got, want):
        assert np.abs(np.ravel(g) / np.ravel(w) - 1.0).max() <= 5e-14


@pytest.mark.parametrize("column", [False, True])
def test_base_logs_take_log_1_minus_p_to_the_x_by_one_rule(column):
    # l0 = log(1 - p^x) at x is l1 = log(1 - p^(x+1)) at x - 1, bit for bit, for p scalar and as the fitter's
    # parameter column
    ps, x = np.array([0.5, 0.9, 0.999, 1.0 - 1e-6]), np.arange(1.0, 51.0)
    for p in (ps[:, None],) if column else ps:
        with np.errstate(divide="ignore"):  # log(1 - p^0) at x - 1 = 0, which the formulas leave to their caller
            assert np.array_equal(dge._base_logs(p, x)[1], dge._base_logs(p, x - 1.0)[0])


@given(
    st.floats(0.2, 8.0),
    st.floats(0.05, 0.95),
    st.floats(1e-6, 1.0),
    st.integers(0, 400),
)
def test_univariate_kernel_property(alpha, p, theta, x):
    want = ref_uni_pmf(alpha, p, theta, x)
    if want > TINY:
        assert_close(ugdge_pmf(UgdgeParams.from_values(alpha, p, theta), x), [want])


@given(
    st.floats(0.3, 6.0),
    st.floats(0.05, 0.9),
    st.floats(0.3, 6.0),
    st.floats(0.05, 0.9),
    st.floats(1e-6, 1.0),
    st.integers(0, 60),
    st.integers(0, 60),
)
def test_bivariate_kernel_property(a1, p1, a2, p2, theta, x, y):
    want = ref_biv_pmf(a1, p1, a2, p2, theta, x, y)
    if want > TINY:
        assert_close(bgdge_pmf(BgdgeParams.from_values(a1, p1, a2, p2, theta), x, y), [want])


def ref_base(alpha, p, x):
    """Base CDF ``(1 - p^(x+1))^alpha`` in mpmath; 0 below the support."""
    return (1 - mp.mpf(p) ** (x + 1)) ** mp.mpf(alpha) if x >= 0 else mp.mpf(0)


@pytest.mark.parametrize("theta", [0.5, 1e-4, 1e-6])
@pytest.mark.parametrize("law,grid", [((1.5, 0.4), np.arange(-1, 40)), DEEP_UNI[2]])
def test_cdfs_and_hazard_weight_match_reference_at_small_theta(law, grid, theta):
    # each is a ratio over 1 - (1 - theta) A, which cancels at small theta
    # where A crowds 1 unless it is formed from log A
    alpha, p = law
    gx, gy = np.meshgrid(grid[::2], grid[::2], indexing="ij")
    with mp.workdps(REF_DPS):
        th = mp.mpf(theta)
        cdf = [float(ref_cdf(alpha, p, theta, int(x))) for x in grid]
        weight = [float(th / (1 - (1 - th) * ref_base(alpha, p, int(x)))) for x in grid]
        joint = []
        for x, y in zip(gx.ravel(), gy.ravel()):
            w = ref_base(alpha, p, int(x)) * ref_base(2.0, 0.3, int(y))
            joint.append(float(th * w / (1 - (1 - th) * w)))
    uni = UgdgeParams.from_values(alpha, p, theta)
    assert_close(ugdge_cdf(uni, grid), cdf)
    assert_close(hazard_weight(uni, grid), weight)
    assert_close(bgdge_cdf(BgdgeParams.from_values(alpha, p, 2.0, 0.3, theta), gx, gy), joint)


def test_latent_count_laws_resolve_cells_whose_cdfs_coincide():
    # the pmf is about 2e-19, and the base CDFs at x and x - 1 agree in double
    # precision; the modes, the means and the conditional CDF, formed from
    # logs, resolve the cell
    uni = UgdgeParams.from_values(2.0, 0.9, 0.5)
    biv = BgdgeParams.from_values(2.0, 0.9, 2.0, 0.9, 0.5)
    assert ugdge_pmf(uni, 400) > 0.0 and bgdge_pmf(biv, 400, 3) > 0.0
    assert cond_n_argmax(uni, 400) == ref_count_mode(uni.as_tuple(), (400,)) == 1
    assert biv_cond_n_argmax(biv, 400, 3) == ref_count_mode(biv.as_tuple(), (400, 3)) == 1
    assert cond_n_mean(uni, 400) == pytest.approx(ref_count_mean(uni.as_tuple(), (400,)), rel=REL)
    assert biv_cond_n_mean(biv, 400, 3) == pytest.approx(ref_count_mean(biv.as_tuple(), (400, 3)), rel=REL)
    assert cond_cdf_given_eq(biv, 3, 400) == pytest.approx(ref_cond_cdf_given_eq(biv.as_tuple(), 3, 400), rel=REL)


# ---------------------------------------------------------------------------
# likelihoods on distinct cells


def test_loglik_on_cells_equals_per_observation_sum():
    truth = BgdgeParams.from_values(2.0, 0.25, 1.5, 0.4, 0.3)
    bx, by = bgdge_sample(truth, np.random.default_rng(31), size=3000)
    data = BivDataset(bx, by)
    per_obs = float(np.sum(np.log(bgdge_pmf(truth, bx, by))))
    assert observed_loglik_biv(truth, data) == pytest.approx(per_obs, rel=1e-12)

    uni = UgdgeParams.from_values(1.0, 0.8, 0.02)
    x = ugdge_sample(uni, np.random.default_rng(32), size=3000)
    per_obs = float(np.sum(np.log(ugdge_pmf(uni, x))))
    assert observed_loglik_uni(uni, x) == pytest.approx(per_obs, rel=1e-12)


def test_base_ll_on_latent_cells_equals_latent_loglik_per_observation():
    rng = np.random.default_rng(33)
    values = rng.integers(0, 9, size=2000)
    counts = rng.integers(1, 5, size=2000)
    points = [(0.3, 0.4), (1.0, 0.4), (2.5, 0.7)]
    on_cells = _base_ll([fitting._latent_cells(values, counts)], points)[0]
    direct = [latent_weighted_loglik(values, counts, alpha, p) for alpha, p in points]
    assert on_cells == pytest.approx(direct, rel=1e-12)


def test_latent_loglik_is_exact_where_direct_difference_cancels():
    # (1 - p^(x+1))^a - (1 - p^x)^a at p = 0.9, x = 400 is about 2e-19 * a,
    # far below the rounding of either term
    with mp.workdps(60):
        want = sum(
            float(mp.log((1 - mp.mpf(0.9) ** (x + 1)) ** n - (1 - mp.mpf(0.9) ** x) ** n))
            for x, n in ((400, 2.0), (350, 6.0))
        )
    got = latent_weighted_loglik([400, 350], [1, 3], 2.0, 0.9)
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# latent-count modes


def brute_modes(parts, tau, n_max):
    """Smallest maximizer of tau^(n-1) prod (hi^n - lo^n) over 1..n_max."""
    ns = np.arange(1, n_max + 1, dtype=float)
    modes = []
    for k in range(parts[0][0].size):
        t = tau ** (ns - 1.0)
        for hi, lo in parts:
            t = t * (hi[k] ** ns - lo[k] ** ns)
        modes.append(int(np.argmax(t)) + 1)
    return np.array(modes)


def base_cdfs(alpha, p, x):
    x = np.asarray(x, dtype=float)
    return (1.0 - p ** (x + 1.0)) ** alpha, np.where(x > 0, (1.0 - p**x) ** alpha, 0.0)


# the ridge iterate where the simulation study's n = 25 replication 2 starts EM;
# its modes reach 18,691
RIDGE = BgdgeParams.from_values(
    0.0010000000000000002, 0.18952461979873433, 0.0010000000000000002, 0.21561047978907735,
    8.06460292589674e-05,
)


@pytest.mark.parametrize(
    "omega",
    [RIDGE, BgdgeParams.from_values(1.8, 0.3, 2.4, 0.2, 0.15), BgdgeParams.from_values(0.5, 0.6, 3.0, 0.3, 0.01)],
)
def test_e_step_modes_match_brute_force(omega):
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    bx, by = bgdge_sample(truth, np.random.default_rng([20260822, 25, 2]), size=25)
    data = BivDataset(bx, by)
    a1, p1, a2, p2, th = omega.as_tuple()
    cells = sorted(set(zip(bx.tolist(), by.tolist())))
    cx = np.array([c[0] for c in cells])
    cy = np.array([c[1] for c in cells])
    want = brute_modes([base_cdfs(a1, p1, cx), base_cdfs(a2, p2, cy)], 1.0 - th, 60_000)

    got = e_step(omega, data)
    index = {c: i for i, c in enumerate(cells)}
    assert got.tolist() == [int(want[index[c]]) for c in zip(bx.tolist(), by.tolist())]


@pytest.mark.parametrize("alpha", [0.05, 0.6, 3.0])
def test_e_step_uni_modes_match_brute_force_across_thetas(alpha):
    # small theta spreads the modes over the first few hundred counts
    x = np.arange(0, 12)
    for theta in np.geomspace(2e-3, 0.3, 12):
        want = brute_modes([base_cdfs(alpha, 0.4, x)], 1.0 - theta, 20_000)
        got = e_step_uni(UgdgeParams.from_values(alpha, 0.4, theta), x)
        assert got.tolist() == want.tolist()


def test_e_step_uni_modes_match_brute_force():
    params = UgdgeParams.from_values(0.05, 0.5, 2e-4)
    x = np.array([0, 1, 1, 2, 5, 9, 9, 14])
    vals = np.unique(x)
    want = brute_modes([base_cdfs(0.05, 0.5, vals)], 1.0 - 2e-4, 60_000)
    got = e_step_uni(params, x)
    assert got.tolist() == [int(want[np.searchsorted(vals, v)]) for v in x]


# cells at which neighbouring counts near the mode differ in weight by 1e-10 to
# 1e-8 relative, finer than u^n - v^n formed from u and v in double precision ranks
CLOSE_MODES = [
    ((0.002302117254139093, 0.44603730677953307, 0.00015174738987252203), (25,), 6589),
    ((0.001257689104535014, 0.3064655742376565, 0.002113249346158383, 0.57439191065624, 1.6669775689755208e-05),
     (19, 8), 55638),
]


@pytest.mark.parametrize("q,cell,mode", CLOSE_MODES)
def test_count_mode_is_certified_at_50_digits(q, cell, mode):
    got = (cond_n_argmax(UgdgeParams.from_values(*q), *cell) if len(cell) == 1
           else biv_cond_n_argmax(BgdgeParams.from_values(*q), *cell))
    with mp.workdps(50):
        pairs, log_tau = ref_pairs(q, cell), mp.log(1 - mp.mpf(q[-1]))

        def log_t(n):
            return (n - 1) * log_tau + sum(mp.log(u ** n - v ** n) for u, v in pairs)

        assert log_t(got) > log_t(got - 1) and log_t(got) >= log_t(got + 1)
    assert got == mode


def test_count_mode_refuses_a_bound_past_2_to_the_53():
    # p^(x+1) underflows, so the mode's bound is d / -log(1 - theta), d coordinates: 1e300 or 2e300
    for call in (lambda: cond_n_argmax(UgdgeParams.from_values(2.0, 0.5, 1e-300), 2000),
                 lambda: biv_cond_n_argmax(BgdgeParams.from_values(2.0, 0.5, 2.0, 0.5, 1e-300), 2000, 2000)):
        with pytest.raises(SeriesCapError, match="2\\^53"):
            call()


# ---------------------------------------------------------------------------
# gradient of the kernel

#: Working precision of the gradient references: the smallest pmf they difference, 1e-63 at x = 200 and
#: p = 0.5, keeps 37 digits.
GRAD_DPS = 100


def ref_uni_logpmf(alpha, p, theta, x):
    return mp.log(ref_cdf(alpha, p, theta, x) - ref_cdf(alpha, p, theta, x - 1))


def ref_biv_logpmf(a1, p1, a2, p2, theta, x, y):
    def joint(s, t):
        w = ref_base(a1, p1, s) * ref_base(a2, p2, t)
        return theta * w / (1 - (1 - theta) * w)

    return mp.log(joint(x, y) - joint(x - 1, y) - joint(x, y - 1) + joint(x - 1, y - 1))


def ref_partials(logpmf, params, cell):
    """Partials of ``logpmf(*params, *cell)`` by mpmath differentiation at `GRAD_DPS` digits."""
    with mp.workdps(GRAD_DPS):
        q = [mp.mpf(v) for v in params]
        return [
            float(mp.diff(lambda t, i=i: logpmf(*q[:i], t, *q[i + 1:], *cell), q[i]))
            for i in range(len(q))
        ]


def assert_partials_close(got, want):
    want = np.asarray(want, dtype=float)
    err = np.abs(np.asarray(got) - want) / np.abs(want)
    assert err.max() <= REL, f"relative error {err.max():.3g}"


SERIEA_MLE = (2.648138531581, 0.204063392347, 6.782315129779, 0.1603608641943, 0.2725069489861)


@pytest.mark.parametrize("params", [SERIEA_MLE, SERIEA_MLE[:4] + (1e-6,), SERIEA_MLE[:4] + (1.0,)])
def test_bivariate_gradient_matches_reference(params, football):
    cells = sorted(set(zip(football.x.tolist(), football.y.tolist())))
    cx, cy = (np.array(c, dtype=float) for c in zip(*cells))
    a1, p1, a2, p2, theta = params
    got = _logpmf_and_grad(theta, *_stacked([(a1, p1, cx), (a2, p2, cy)]))[1]
    assert_partials_close(got.T, [ref_partials(ref_biv_logpmf, params, c) for c in cells])


@pytest.mark.parametrize(
    "params,grid",
    [
        ((2.648138531581, 0.204063392347, 0.2725069489861), np.arange(0, 6)),
        ((2.0, 0.25, 1e-6), np.arange(0, 40, 3)),
        ((0.7, 0.9999, 0.5), DEEP_UNI[2][1]),
        ((0.7, 0.9999, 1e-6), DEEP_UNI[2][1]),
        *((q, np.array(CORNER_XS)) for q in CORNERS),
    ],
)
def test_univariate_gradient_matches_reference(params, grid):
    alpha, p, theta = params
    got = _logpmf_and_grad(theta, *_stacked([(alpha, p, grid.astype(float))]))[1]
    assert_partials_close(got.T, [ref_partials(ref_uni_logpmf, params, (int(x),)) for x in grid])


@pytest.mark.parametrize("params", [q for q in CORNER_PAIRS if q[1] == CORNER_PS[-1]])
def test_bivariate_gradient_matches_reference_at_the_corners(params):
    cells = list(itertools.product(CORNER_XS[::3], CORNER_XS[::3]))
    cx, cy = (np.array(c, dtype=float) for c in zip(*cells))
    a1, p1, a2, p2, theta = params
    got = _logpmf_and_grad(theta, *_stacked([(a1, p1, cx), (a2, p2, cy)]))[1]
    assert_partials_close(got.T, [ref_partials(ref_biv_logpmf, params, c) for c in cells])


# points (shape, p) per coordinate: the search box's corners, Serie A's margins and p near 1, where
# p^(x+1) crowds 1 at small x
THETA_ONE_POINTS = [(1e-3, 1e-6), (1e-3, 1.0 - 1e-6), (1e3, 1e-6), (1e3, 1.0 - 1e-6),
                    (2.648138531581, 0.204063392347), (0.7, 0.9999), (6.782315129779, 0.99999)]
THETA_ONE_CELLS = np.array([0, 1, 2, 3, 7, 20, 40, 200, 1000])


@pytest.mark.parametrize("ncoords", [1, 2])
def test_theta_one_gives_the_base_law_bit_for_bit(ncoords):
    # at theta = 1 the compounding formulas run with tau = 0: every correction is exactly 0 and every
    # denominator exactly 1, so the law is the base law, its partials those of the base log-gaps and
    # its theta-partial 1 - sum w over the corners, bit for bit
    points = np.array([(*a, *b) for a, b in itertools.product(THETA_ONE_POINTS, repeat=2)])[:, :2 * ncoords]
    cells = [g.ravel().astype(float) for g in np.meshgrid(*[THETA_ONE_CELLS] * ncoords, indexing="ij")]
    cols = points.T[..., None]
    coords = [(cols[2 * j], cols[2 * j + 1], c) for j, c in enumerate(cells)]
    with np.errstate(all="ignore"):
        logpmf, grad = _logpmf_and_grad(np.ones((len(points), 1)), *_stacked(coords))
        logs = [dge._base_logs(p, x) for _, p, x in coords]
        gaps = [dge._log_gap(l1, r, alpha) for (alpha, _, _), (l1, _, r, *_) in zip(coords, logs)]
        want = [v for (alpha, p, x), lg in zip(coords, logs) for v in dge._coord_partials(alpha, p, x, lg, 1.0, 0.0)]
        lw = [(alpha * l1, alpha * l0) for (alpha, _, _), (l1, l0, *_) in zip(coords, logs)]
        if ncoords == 1:
            d_theta = 1.0 - np.exp(lw[0][0]) - np.exp(lw[0][1])
        else:
            (lu1, lv1), (lu2, lv2) = lw
            d_theta = 1.0 - ((np.exp(lu1 + lu2) + np.exp(lu1 + lv2)) + (np.exp(lv1 + lu2) + np.exp(lv1 + lv2)))
    assert not np.isnan(grad).any()
    for j, gap in enumerate(gaps):  # where a coordinate's gap underflows to 0, its partials are 0
        assert np.any(gap == -np.inf) and np.all(grad[2 * j:2 * j + 2][:, gap == -np.inf] == 0.0)
    assert np.array_equal(logpmf, sum(gaps)) and np.array_equal(grad, np.array([*want, d_theta]))
    for row, q in zip(logpmf, points):  # the evaluators' log-pmf at theta = 1 is the same
        assert np.array_equal(row, _logpmf(1.0, [(q[2 * j], q[2 * j + 1], c) for j, c in enumerate(cells)]))
        if ncoords == 1:
            law = UgdgeParams.from_values(*q, 1.0)
            assert np.array_equal(ugdge_pmf(law, THETA_ONE_CELLS), dge_pmf(law.base, THETA_ONE_CELLS))


SHAPES = st.floats(1e-3, 1e3)
UNITS = st.floats(1e-6, 1.0 - 1e-6)
THETAS = st.one_of(st.just(1.0), UNITS)


# the fitter passes a batch of parameter points as columns (k, 1): row i of the
# fused log-pmf must be exactly the evaluators' log-pmf at point i
@given(st.lists(st.tuples(SHAPES, UNITS, THETAS), min_size=1, max_size=3),
       st.lists(st.integers(0, 400), min_size=1, max_size=8))
def test_univariate_fused_logpmf_equals_the_evaluators(points, xs):
    x = np.array(xs, dtype=float)
    with np.errstate(all="ignore"):
        cols = np.array(points).T[..., None]
        got = _logpmf_and_grad(cols[2], *_stacked([(cols[0], cols[1], x)]))[0]
        for row, (alpha, p, theta) in zip(got, points):
            assert np.array_equal(row, _logpmf(theta, [(alpha, p, x)]))


@given(st.lists(st.tuples(SHAPES, UNITS, SHAPES, UNITS, THETAS), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400)), min_size=1, max_size=8))
def test_bivariate_fused_logpmf_equals_the_evaluators(points, cells):
    x, y = (np.array(c, dtype=float) for c in zip(*cells))
    with np.errstate(all="ignore"):
        cols = np.array(points).T[..., None]
        got = _logpmf_and_grad(cols[4], *_stacked([(cols[0], cols[1], x), (cols[2], cols[3], y)]))[0]
        for row, (a1, p1, a2, p2, theta) in zip(got, points):
            assert np.array_equal(row, _logpmf(theta, [(a1, p1, x), (a2, p2, y)]))


def ref_latent_logpmf(alpha, p, x, n):
    """A value's term of the weighted base log-likelihood: its shape is ``n alpha``."""
    return mp.log(ref_base(n * alpha, p, x) - ref_base(n * alpha, p, x - 1))


@pytest.mark.parametrize(
    "params,grid",
    [
        ((2.648138531581, 0.204063392347), np.arange(0, 6)),
        ((0.3, 0.25), np.arange(0, 40, 3)),
        ((0.7, 0.9999), DEEP_UNI[2][1]),
    ],
)
def test_latent_gradient_matches_reference(params, grid):
    counts = 1.0 + np.arange(grid.size) % 5
    got = [_base_ll([(np.array([x], dtype=float), np.array([n]), np.ones(1))], params)[1]
           for x, n in zip(grid, counts)]
    want = [ref_partials(ref_latent_logpmf, params, (int(x), int(n))) for x, n in zip(grid, counts)]
    assert_partials_close(got, want)


# ---------------------------------------------------------------------------
# latent-count mean in the deep tail


def ref_cond_n_mean(alpha, p, theta, x):
    """``E[N | X = x]`` at 60 digits: the sum of ``n theta tau^(n-1) (u^n - v^n)`` over n,
    or at small theta, where that converges too slowly, its closed form."""
    with mp.workdps(60):
        u, v, th = ref_base(alpha, p, x), ref_base(alpha, p, x - 1), mp.mpf(theta)
        if theta < 0.01:
            return float((1 - (1 - th) ** 2 * u * v) / ((1 - (1 - th) * u) * (1 - (1 - th) * v)))
        num = den = mp.mpf(0)
        n = 0
        while True:
            n += 1
            term = (1 - th) ** (n - 1) * (u ** n - v ** n)
            num, den = num + n * term, den + term
            if n * term < mp.mpf(10) ** -70 * num:
                return float(num / den)


@pytest.mark.parametrize("theta", [0.5, 1e-6])
@pytest.mark.parametrize("x", [50, 250, 330, 400])
def test_latent_count_mean_matches_reference_in_deep_tail(x, theta):
    # at x = 330 the base CDFs at x and x - 1 differ in their last two bits
    # and at x = 400 not at all, yet the law of N given X = x is well defined
    params = UgdgeParams.from_values(2.0, 0.9, theta)
    want = ref_cond_n_mean(2.0, 0.9, theta, x)
    assert cond_n_mean(params, x) == pytest.approx(want, rel=REL)
    got = e_step_uni(params, [x, x], EmConfig(e_step="expected"))
    assert got == pytest.approx([want, want], rel=REL)
    if theta == 0.5:  # the series sums slowly at small theta
        assert series_cond_n_mean(params, x) == pytest.approx(want, rel=REL)


# ---------------------------------------------------------------------------
# latent-count laws and conditionals against mpmath
#
# Parameters are (alpha, p, theta) of one coordinate or (alpha1, p1, alpha2,
# p2, theta) of a pair, and a cell holds one value per coordinate.  The
# references are written from the definitions: the compounded CDF
# theta w / (1 - tau w) of the base CDFs' product w, and the joint law
# P(N = n, cell) = theta tau^(n-1) prod_j (u_j^n - v_j^n), u_j and v_j the base
# CDFs of coordinate j at x_j and x_j - 1.

#: Working precision of these references: the smallest difference they form,
#: a joint pmf near 1e-126 at the corner cell (200, 200) with p = 0.5, keeps 74 digits.
COND_DPS = 200


def ref_pairs(params, cell):
    """``(u_j, v_j)`` of each coordinate at the cell."""
    laws = [params[i:i + 2] for i in range(0, len(params) - 1, 2)]
    return [(ref_base(a, p, x), ref_base(a, p, x - 1)) for (a, p), x in zip(laws, cell)]


def ref_corner_sum(pairs, phi):
    """Sum of ``phi(w)`` over the corners ``w = prod_j (u_j or v_j)``, each v_j flipping the sign."""
    total = mp.mpf(0)
    for pick in itertools.product((0, 1), repeat=len(pairs)):
        total += (-1) ** sum(pick) * phi(mp.fprod(pair[k] for pair, k in zip(pairs, pick)))
    return total


def ref_count_law(params, cell):
    """The cell's base CDFs and ``P(cell) = sum_n P(N = n, cell)``, summed over n in closed form."""
    th = mp.mpf(params[-1])
    pairs = ref_pairs(params, cell)
    return th, pairs, ref_corner_sum(pairs, lambda w: th * w / (1 - (1 - th) * w))


def ref_count_mean(params, cell):
    """``E[N | cell] = sum_n n P(N = n, cell) / P(cell)``, the sum over n in closed form."""
    with mp.workdps(COND_DPS):
        th, pairs, prob = ref_count_law(params, cell)
        return float(ref_corner_sum(pairs, lambda w: th * w / (1 - (1 - th) * w) ** 2) / prob)


#: Latent counts at which the conditional pmf of N is checked.
COUNTS = (1, 2, 5, 30, 1000, 100_000)


def ref_count_pmf(params, cell):
    """``P(N = n | cell)`` at each n of `COUNTS`."""
    with mp.workdps(COND_DPS):
        th, pairs, prob = ref_count_law(params, cell)
        return [float(th * (1 - th) ** (n - 1) * mp.fprod(u ** n - v ** n for u, v in pairs) / prob)
                for n in COUNTS]


def ref_pair_cdfs(params, x, y):
    """``F(x, y), F(x, y-1), F(inf, y), F(inf, y-1)`` of the joint CDF F."""
    th = mp.mpf(params[-1])
    u, v, v_ = ref_base(*params[:2], x), ref_base(*params[2:4], y), ref_base(*params[2:4], y - 1)
    return [th * w / (1 - (1 - th) * w) for w in (u * v, u * v_, v, v_)]


def ref_cond_cdf_given_eq(params, x, y):
    """``P(X <= x | Y = y) = (F(x, y) - F(x, y-1)) / (F(inf, y) - F(inf, y-1))``."""
    with mp.workdps(COND_DPS):
        f, f_, g, g_ = ref_pair_cdfs(params, x, y)
        return float((f - f_) / (g - g_))


def ref_cdf_given_le(params, x, y):
    """``P(X <= x | Y <= y) = F(x, y) / F(inf, y)``."""
    with mp.workdps(COND_DPS):
        f, _, g, _ = ref_pair_cdfs(params, x, y)
        return float(f / g)


def ref_moment(alpha, p, theta, r):
    """``E X^r = sum_{x>=1} (x^r - (x-1)^r) P(X >= x)`` at 60 digits.

    The terms are summed directly until p^x falls below 1e-60 (the rest is
    then below 1e-40 of the sum for every law here), or up to x = 2000.  Past
    2000 the rest is the Euler-Maclaurin formula: the integral from 2000 and
    six derivative corrections, which converge fast because the summand is
    analytic there and decays on the scale 1 / log(1/p).
    """
    with mp.workdps(60):
        a, p, th = mp.mpf(alpha), mp.mpf(p), mp.mpf(theta)

        def term(x):  # the base CDF at x - 1 is (1 - p^x)^alpha
            b = (1 - p ** x) ** a
            return (x ** r - (x - 1) ** r) * (1 - b) / (1 - (1 - th) * b)

        total, x = mp.mpf(0), 1
        while x < 2000 and p ** x >= 1e-60:
            total += term(mp.mpf(x))
            x += 1
        if x == 2000:
            scale = -1 / mp.log(p)
            total += mp.quad(term, [x, *(x + scale * 8 ** k for k in range(-1, 4)), mp.inf]) + term(mp.mpf(x)) / 2
            total -= mp.fsum(mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.diff(term, x, 2 * k - 1)
                             for k in range(1, 7))
        return float(total)


EXPECTED = EmConfig(e_step="expected")

# (parameters, values) of one coordinate: the deep-tail and small-theta grids,
# and a cell whose base CDFs at x and x - 1 coincide in double precision
SINGLES = [
    *(((*law, theta), grid.tolist()) for law, grid in DEEP_UNI for theta in (1.0, 0.5, 1e-4, 1e-6)),
    *(((1.5, 0.4, theta), list(range(40))) for theta in (0.5, 1e-4, 1e-6)),
    ((2.0, 0.9, 0.5), [400]),
]

# (parameters, x values, y values) of a pair: the deep-tail and small-theta
# grids, and cells where the corner-sum and series evaluators that these
# replace lost digits or raised
PAIRS = [
    *(((*law[:4], theta), grid[::3].tolist(), grid[::3].tolist()) for law, grid in DEEP_BIV
      for theta in (law[4], 1e-6)),
    *(((1.5, 0.4, 2.0, 0.3, theta), list(range(0, 40, 4)), list(range(0, 40, 4))) for theta in (0.5, 1e-4, 1e-6)),
    ((2.0, 0.9, 2.0, 0.9, 0.5), [3, 150, 250], [150, 250, 400]),
    ((1.5, 0.4, 2.0, 0.3, 1e-3), [60], [60]),
    ((1.5, 0.4, 2.0, 0.3, 0.5), [0, 1, 5], [60]),
    ((1.5, 0.4, 2.0, 0.3, 1e-6), list(range(0, 61, 4)), list(range(0, 41, 4))),
]

# (alpha, p, theta) of the moments: the grids' laws, and p near 1, where the
# tail is about 1 / (1 - p) times the last term summed
MOMENT_LAWS = [(0.4, 0.3, 1e-6), (1.5, 0.4, 1e-6), (2.0, 0.9, 1e-6), (2.0, 0.9, 0.5), (0.7, 0.9999, 1e-6),
               (2.0, 0.999, 0.01)]


def check_cond_n_pmf(q, xs):
    law = UgdgeParams.from_values(*q)
    return [cond_n_pmf(law, x, COUNTS) for x in xs], [ref_count_pmf(q, (x,)) for x in xs]


def check_cond_n_mean(q, xs):
    return [cond_n_mean(UgdgeParams.from_values(*q), x) for x in xs], [ref_count_mean(q, (x,)) for x in xs]


def check_e_step_uni(q, xs):
    return e_step_uni(UgdgeParams.from_values(*q), xs, EXPECTED), [ref_count_mean(q, (x,)) for x in xs]


def check_biv_cond_n_pmf(q, xs, ys):
    law, cells = BgdgeParams.from_values(*q), list(itertools.product(xs, ys))
    return [biv_cond_n_pmf(law, x, y, COUNTS) for x, y in cells], [ref_count_pmf(q, c) for c in cells]


def check_biv_cond_n_mean(q, xs, ys):
    law, cells = BgdgeParams.from_values(*q), list(itertools.product(xs, ys))
    return [biv_cond_n_mean(law, x, y) for x, y in cells], [ref_count_mean(q, c) for c in cells]


def check_e_step(q, xs, ys):
    cells = list(itertools.product(xs, ys))
    data = BivDataset.from_pairs(cells)
    return e_step(BgdgeParams.from_values(*q), data, EXPECTED), [ref_count_mean(q, c) for c in cells]


def check_cond_cdf_given_eq(q, xs, ys):
    law = BgdgeParams.from_values(*q)
    return [cond_cdf_given_eq(law, xs, y) for y in ys], [[ref_cond_cdf_given_eq(q, x, y) for x in xs] for y in ys]


def check_cond_given_le(q, xs, ys):
    law = BgdgeParams.from_values(*q)
    return [ugdge_cdf(cond_given_le(law, y), xs) for y in ys], [[ref_cdf_given_le(q, x, y) for x in xs] for y in ys]


def check_ugdge_moment(q):
    law = UgdgeParams.from_values(*q)
    return [ugdge_moment(law, r) for r in (1, 2)], [ref_moment(*q, r) for r in (1, 2)]


def check_ugdge_pmf(q, xs):
    return ugdge_pmf(UgdgeParams.from_values(*q), xs), [ref_uni_pmf(*q, x) for x in xs]


def check_dge_pmf(law, xs):
    return dge_pmf(DgeParams(*law), xs), [ref_uni_pmf(*law, 1.0, x) for x in xs]


def check_bgdge_pmf(q, xs, ys):
    cells = list(itertools.product(xs, ys))
    return bgdge_pmf(BgdgeParams.from_values(*q), *np.array(cells).T), [ref_biv_pmf(*q, *c) for c in cells]


def check_ugdge_hazard(q, xs):
    """The pmf over ``P(X >= x) = 1 - F(x - 1)``."""
    with mp.workdps(REF_DPS):
        want = [(ref_cdf(*q, x) - ref_cdf(*q, x - 1)) / (1 - ref_cdf(*q, x - 1)) for x in xs]
    return ugdge_hazard(UgdgeParams.from_values(*q), xs), want


def check_pmf_weight(q, xs):
    """The compounded pmf over the base pmf."""
    with mp.workdps(REF_DPS):
        want = [(ref_cdf(*q, x) - ref_cdf(*q, x - 1)) / (ref_base(*q[:2], x) - ref_base(*q[:2], x - 1)) for x in xs]
    return pmf_weight(UgdgeParams.from_values(*q), xs), want


# the base law's evaluators, at real arguments too: law (alpha, p) and values
BASES = [(law, [*grid.tolist(), *(x + 0.25 for x in grid.tolist()), -0.5]) for law, grid in DEEP_UNI]


def check_dge_cdf(law, xs):
    with mp.workdps(REF_DPS):
        return dge_cdf(DgeParams(*law), xs), [ref_base(*law, math.floor(x)) for x in xs]


def check_ge_cdf(law, xs):
    """The continuous law with rate ``-log p``: ``(1 - exp(-lam y))^alpha`` at y >= 0."""
    alpha, p = law
    lam = -math.log(p)
    with mp.workdps(REF_DPS):
        want = [(1 - mp.exp(-mp.mpf(lam) * mp.mpf(y))) ** alpha if y > 0 else 0 for y in xs]
    return ge_cdf(GeParams(alpha, lam), xs), want


def check_dge_hazard(law, xs):
    xs = [x for x in xs if x >= 0 and x == int(x)]
    with mp.workdps(REF_DPS):
        want = [(ref_base(*law, x) - ref_base(*law, x - 1)) / (1 - ref_base(*law, x - 1)) for x in xs]
    return dge_hazard(DgeParams(*law), xs), want


def check_prob_eq_le(q, xs, ys):
    """``P(X = x, Y <= y) = F(x, y) - F(x - 1, y)`` of the joint CDF F, y from -1."""
    def joint(s, t):
        w, th = ref_base(*q[:2], s) * ref_base(*q[2:4], t), mp.mpf(q[4])
        return th * w / (1 - (1 - th) * w)

    cells = list(itertools.product(xs, [-1, *ys]))
    with mp.workdps(REF_DPS):
        want = [joint(x, y) - joint(x - 1, y) for x, y in cells]
    law = BgdgeParams.from_values(*q)
    return [prob_eq_le(law, x, y) for x, y in cells], want


# generating functions: the references sum the pmf against the weights over
# x < 300 (one coordinate) and the cells [0, 100)^2 (a pair), which leaves tails
# below 1e-20 of every total at these laws and arguments
GF_UNI = [(1.5, 0.4, theta) for theta in (0.05, 0.5, 1.0)]
GF_BIV = [(2.0, 0.25, 1.5, 0.4, theta) for theta in (0.05, 0.5, 1.0)]
GF_ZS = (-0.9, -0.3, 0.0, 0.4, 0.95)
GF_TS = (-1.0, 0.0, 0.6)  # p e^t = 0.73 at t = 0.6
GF_Z_PAIRS = ((0.5, 0.5), (0.0, 0.6), (0.7, 0.0), (-0.6, 0.8), (0.9, -0.3), (-0.5, -0.5))
GF_T_PAIRS = ((0.0, 0.0), (0.0, 0.3), (-0.4, 0.0), (0.3, 0.2), (0.5, -0.4), (-0.5, -1.0))


@functools.lru_cache(maxsize=None)
def ref_pmf_row(q):
    """The pmf of one coordinate at x < 300, at `REF_DPS` digits."""
    with mp.workdps(REF_DPS):
        cdf = [ref_cdf(*q, x) for x in range(-1, 300)]
        return [b - a for a, b in zip(cdf, cdf[1:])]


@functools.lru_cache(maxsize=None)
def ref_pmf_grid(q):
    """The joint pmf at the cells [0, 100)^2, at 60 digits."""
    with mp.workdps(60):
        a = [ref_base(*q[:2], x) for x in range(-1, 100)]
        b = [ref_base(*q[2:4], y) for y in range(-1, 100)]
        th = mp.mpf(q[4])
        f = [[th * u * v / (1 - (1 - th) * u * v) for v in b] for u in a]
        return [[f[i][j] - f[i - 1][j] - f[i][j - 1] + f[i - 1][j - 1] for j in range(1, 101)] for i in range(1, 101)]


def ref_weighted(row, z):
    return mp.fsum(f * z ** x for x, f in enumerate(row))


def check_ugdge_pgf(q, zs):
    with mp.workdps(REF_DPS):
        want = [ref_weighted(ref_pmf_row(q), mp.mpf(z)) for z in zs]
    return [ugdge_pgf(UgdgeParams.from_values(*q), z) for z in zs], want


def check_ugdge_mgf(q, ts):
    with mp.workdps(REF_DPS):
        want = [ref_weighted(ref_pmf_row(q), mp.exp(t)) for t in ts]
    return [ugdge_mgf(UgdgeParams.from_values(*q), t) for t in ts], want


def ref_joint_weighted(q, z1, z2):
    with mp.workdps(60):
        return ref_weighted([ref_weighted(row, z2) for row in ref_pmf_grid(q)], z1)


def check_bgdge_pgf(q, pairs):
    law = BgdgeParams.from_values(*q)
    return ([bgdge_pgf(law, z1, z2) for z1, z2 in pairs],
            [ref_joint_weighted(q, mp.mpf(z1), mp.mpf(z2)) for z1, z2 in pairs])


def check_bgdge_mgf(q, pairs):
    law = BgdgeParams.from_values(*q)
    return ([bgdge_mgf(law, t1, t2) for t1, t2 in pairs],
            [ref_joint_weighted(q, mp.exp(t1), mp.exp(t2)) for t1, t2 in pairs])


EXACT = [
    *((check, q, (xs,)) for check in (check_cond_n_pmf, check_cond_n_mean, check_e_step_uni, check_ugdge_hazard,
                                      check_pmf_weight) for q, xs in SINGLES),
    *((check, law, (xs,)) for check in (check_ge_cdf, check_dge_cdf, check_dge_hazard) for law, xs in BASES),
    *((check, q, (xs, ys)) for check in (check_biv_cond_n_pmf, check_biv_cond_n_mean, check_e_step,
                                         check_cond_cdf_given_eq, check_cond_given_le, check_prob_eq_le)
      for q, xs, ys in PAIRS),
    *((check, q, (CORNER_XS,)) for check in (check_ugdge_pmf, check_ugdge_hazard, check_pmf_weight, check_cond_n_pmf)
      for q in CORNERS),
    *((check, law, (CORNER_XS,)) for check in (check_dge_pmf, check_dge_hazard) for law in CORNER_BASES),
    *((check, q, (CORNER_XS, CORNER_XS)) for check in (check_bgdge_pmf, check_biv_cond_n_pmf) for q in CORNER_PAIRS),
    *((check_ugdge_moment, q, ()) for q in MOMENT_LAWS),
    *((check, q, (args,)) for q in GF_UNI for check, args in ((check_ugdge_pgf, GF_ZS), (check_ugdge_mgf, GF_TS))),
    *((check, q, (args,)) for q in GF_BIV
      for check, args in ((check_bgdge_pgf, GF_Z_PAIRS), (check_bgdge_mgf, GF_T_PAIRS))),
]


@pytest.mark.parametrize("check,params,grids", EXACT, ids=[f"{c.__name__[6:]}-{q}" for c, q, _ in EXACT])
def test_latent_count_laws_and_conditionals_match_reference(check, params, grids):
    got, want = check(params, *grids)
    assert_close(got, np.ravel(want))


# ---------------------------------------------------------------------------
# integer-valued evaluators against mpmath, exactly


def ref_quantile(q, gamma):
    """Smallest integer x with ``F(x) >= gamma``, by bisection on the CDF at 60 digits."""
    with mp.workdps(60):
        lo, hi = -1, 1  # F(lo) < gamma <= F(hi)
        while ref_cdf(*q, hi) < gamma:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if ref_cdf(*q, mid) >= gamma else (mid, hi)
        return hi


def ref_count_mode(q, cell):
    """Smallest mode over n of ``tau^(n-1) prod_j (u_j^n - v_j^n)``, scanned up to the first n whose
    envelope ``tau^(n-1) prod_j u_j^n`` falls to the running maximum."""
    with mp.workdps(40):
        pairs, tau = ref_pairs(q, cell), 1 - mp.mpf(q[-1])
        best, mode, n = mp.mpf(-1), 0, 0
        while True:
            n += 1
            lead = tau ** (n - 1)
            if lead * mp.fprod(u ** n for u, _ in pairs) <= best:
                return mode
            term = lead * mp.fprod(u ** n - v ** n for u, v in pairs)
            if term > best:
                best, mode = term, n


LEVELS = (0.001, 0.1, 0.5, 0.9, 0.999)


def check_ugdge_quantile(q):
    law = UgdgeParams.from_values(*q)
    return [ugdge_quantile(law, g) for g in LEVELS], [ref_quantile(q, g) for g in LEVELS]


def check_cond_n_argmax(q, xs):
    law = UgdgeParams.from_values(*q)
    return [cond_n_argmax(law, x) for x in xs], [ref_count_mode(q, (x,)) for x in xs]


def check_biv_cond_n_argmax(q, xs, ys):
    law, cells = BgdgeParams.from_values(*q), list(itertools.product(xs, ys))
    return [biv_cond_n_argmax(law, x, y) for x, y in cells], [ref_count_mode(q, c) for c in cells]


# the modes are checked where the base CDFs at x and x - 1 differ by at least 1e-8,
# so that rounding them cannot reorder neighbouring counts
INTEGER = [
    *((check_ugdge_quantile, q, ()) for q in MOMENT_LAWS),
    *((check_cond_n_argmax, (1.5, 0.4, theta), (list(range(16)),)) for theta in (1.0, 0.5, 0.05, 0.01)),
    *((check_biv_cond_n_argmax, (1.5, 0.4, 2.0, 0.3, theta), (list(range(0, 16, 3)), list(range(0, 13, 3))))
      for theta in (1.0, 0.5, 0.05, 0.01)),
]


@pytest.mark.parametrize("check,params,grids", INTEGER, ids=[f"{c.__name__[6:]}-{q}" for c, q, _ in INTEGER])
def test_integer_valued_evaluators_match_reference(check, params, grids):
    got, want = check(params, *grids)
    assert list(got) == list(want)


# ---------------------------------------------------------------------------
# every public law evaluator has a reference check

#: Public functions of `dge`, `univariate` and `bivariate` that no mpmath check
#: names, and why.
NO_REFERENCE = {
    "ge_sample": "a sampler: inverse transform, checked by round trip through ge_cdf",
    "dge_sample": "a sampler: checked by chi-square against the pmf",
    "ugdge_sample": "a sampler: checked by chi-square against the pmf",
    "bgdge_sample": "a sampler: checked by chi-square against the pmf",
    "mixture_cdf_approx": "a documented truncation, checked against its stated error bound",
    "compound_geometric_params": "a parameter map",
    "biv_compound_geometric_params": "a parameter map",
    "marginal_params": "a parameter map",
    "max_params": "a parameter map",
}

#: The tests outside `EXACT` and `INTEGER` that compare evaluators with mpmath.
REFERENCE_TESTS = (
    test_univariate_kernel_matches_reference_in_deep_tail,
    test_bivariate_kernel_matches_reference_in_deep_tail,
    test_cdfs_and_hazard_weight_match_reference_at_small_theta,
)


def test_every_public_evaluator_has_a_reference_check():
    checks = {*REFERENCE_TESTS, *(check for check, _, _ in EXACT + INTEGER)}
    sources = "\n".join(inspect.getsource(check) for check in checks)
    public = {name for module in (dge, univariate, bivariate) for name in module.__all__
              if inspect.isfunction(getattr(module, name))}
    checked = {name for name in public if re.search(rf"\b{name}\b", sources)}
    assert set(NO_REFERENCE) <= public, "stale exemption"
    assert not checked & set(NO_REFERENCE), "an exempt evaluator has a reference check"
    assert public - checked - set(NO_REFERENCE) == set(), "evaluators without a reference check"
